package predict

import "fmt"

// loopTable is the core of a loop-termination predictor: a direct-
// mapped table of per-branch trip counts. A loop branch repeats its
// body direction trip times and then inverts once; when the learned
// trip count has been confirmed conf times in a row, the table predicts
// the inversion exactly at the trip boundary — something no
// history-hashing predictor can do once the trip count exceeds its
// history length.
type loopTable struct {
	entries []loopEntry
	mask    uint32
	confMin uint8
}

type loopEntry struct {
	tag   uint32
	trip  uint16 // learned iterations between inversions (0 = untrained)
	curr  uint16 // body iterations seen since the last inversion
	conf  uint8  // consecutive confirmations of trip
	dir   bool   // body direction
	valid bool
}

const loopTripMax = 0xffff

func newLoopTable(entries, confMin int) (*loopTable, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predict: loop entries %d not a power of two", entries)
	}
	if confMin < 1 || confMin > 15 {
		return nil, fmt.Errorf("predict: loop confidence threshold %d out of range [1,15]", confMin)
	}
	return &loopTable{
		entries: make([]loopEntry, entries),
		mask:    uint32(entries - 1),
		confMin: uint8(confMin),
	}, nil
}

func (l *loopTable) index(pc uint32) uint32 { return (pc >> 2) & l.mask }

// predict returns the loop prediction and whether the table is
// confident enough to override the fallback predictor. Read-only.
func (l *loopTable) predict(pc uint32) (taken, ok bool) {
	e := &l.entries[l.index(pc)]
	if !e.valid || e.tag != pc || e.trip == 0 || e.conf < l.confMin {
		return false, false
	}
	if e.curr >= e.trip {
		return !e.dir, true // the inversion at the trip boundary
	}
	return e.dir, true
}

// update trains the trip count with the branch's actual outcome.
func (l *loopTable) update(pc uint32, taken bool) {
	e := &l.entries[l.index(pc)]
	if !e.valid || e.tag != pc {
		*e = loopEntry{tag: pc, dir: taken, curr: 1, valid: true}
		return
	}
	if taken == e.dir {
		if e.curr < loopTripMax {
			e.curr++
		} else {
			// Body longer than the counter: this is not a loop we can
			// time. Drop confidence so the fallback takes over.
			e.conf = 0
		}
		return
	}
	// Inversion: the body ran e.curr iterations this time around.
	switch {
	case e.curr == 0:
		// Two inversions in a row — the first observed outcome was the
		// exit direction. Flip the polarity and restart.
		*e = loopEntry{tag: pc, dir: taken, curr: 1, valid: true}
		return
	case e.trip != 0 && e.curr == e.trip:
		if e.conf < 15 {
			e.conf++
		}
	default:
		e.trip = e.curr
		e.conf = 0
	}
	e.curr = 0
}

// name names a loop predictor built on this table with the given
// fallback.
func (l *loopTable) name(fallback DirectionPredictor) string {
	return fmt.Sprintf("loop-%d+%s", len(l.entries), fallback.Name())
}

func (l *loopTable) reset() {
	for i := range l.entries {
		l.entries[i] = loopEntry{}
	}
}

// Loop is the standalone loop predictor family: the loop table with a
// bimodal fallback for branches the table is not confident about.
type Loop struct {
	loop *loopTable
	base *Bimodal
}

// NewLoop builds a loop predictor with entries loop slots, a
// confidence threshold of confMin confirmed trips, and a baseEntries
// bimodal fallback.
func NewLoop(entries, confMin, baseEntries int) (*Loop, error) {
	lt, err := newLoopTable(entries, confMin)
	if err != nil {
		return nil, err
	}
	base, err := NewBimodal(baseEntries)
	if err != nil {
		return nil, err
	}
	return &Loop{loop: lt, base: base}, nil
}

// Predict implements DirectionPredictor; read-only.
func (l *Loop) Predict(pc uint32) bool {
	if taken, ok := l.loop.predict(pc); ok {
		return taken
	}
	return l.base.Predict(pc)
}

// Update implements DirectionPredictor. Both components always train,
// so the fallback stays warm for when loop confidence lapses.
func (l *Loop) Update(pc uint32, taken bool) {
	l.loop.update(pc, taken)
	l.base.Update(pc, taken)
}

// Name implements DirectionPredictor.
func (l *Loop) Name() string { return l.loop.name(l.base) }

// Reset implements DirectionPredictor.
func (l *Loop) Reset() {
	l.loop.reset()
	l.base.Reset()
}

// TAGELoop composes TAGE with a loop-termination table: the loop table
// overrides TAGE when confident (trip counts beyond TAGE's history
// reach), TAGE handles everything else.
type TAGELoop struct {
	tage *TAGE
	loop *loopTable
}

// NewTAGELoop builds the composite from a TAGE configuration plus loop
// table sizing.
func NewTAGELoop(cfg TAGEConfig, loopEntries, confMin int) (*TAGELoop, error) {
	tg, err := NewTAGE(cfg)
	if err != nil {
		return nil, err
	}
	lt, err := newLoopTable(loopEntries, confMin)
	if err != nil {
		return nil, err
	}
	return &TAGELoop{tage: tg, loop: lt}, nil
}

// Predict implements DirectionPredictor; read-only.
func (t *TAGELoop) Predict(pc uint32) bool {
	if taken, ok := t.loop.predict(pc); ok {
		return taken
	}
	return t.tage.Predict(pc)
}

// Update implements DirectionPredictor.
func (t *TAGELoop) Update(pc uint32, taken bool) {
	t.loop.update(pc, taken)
	t.tage.Update(pc, taken)
}

// Name implements DirectionPredictor.
func (t *TAGELoop) Name() string { return t.loop.name(t.tage) }

// Reset implements DirectionPredictor.
func (t *TAGELoop) Reset() {
	t.loop.reset()
	t.tage.Reset()
}

func init() {
	RegisterFamily(Family{
		Name: "loop",
		Doc:  "loop-termination trip counter with bimodal fallback",
		Params: []Param{
			{Name: "entries", Default: 64, Min: 4, Max: 1 << 12, Pow2: true, Doc: "loop table entries"},
			{Name: "conf", Default: 3, Min: 1, Max: 15, Doc: "confirmed trips before overriding"},
			{Name: "base", Default: 2048, Min: 16, Max: 1 << 20, Pow2: true, Doc: "fallback bimodal entries"},
			btbParam(2048),
		},
		Build: func(p map[string]int) (*Unit, error) {
			dir, err := NewLoop(p["entries"], p["conf"], p["base"])
			if err != nil {
				return nil, err
			}
			btb, err := btbFor(p["btb"])
			if err != nil {
				return nil, err
			}
			return NewUnit(dir, btb), nil
		},
		shadow: func(p map[string]int, z *Zoo) (zooMember, error) {
			l, err := z.loopTable(p["entries"], p["conf"])
			if err != nil {
				return zooMember{}, err
			}
			d, err := z.bimodal(p["base"])
			return zooMember{loop: l, dir: d}, err
		},
	})
	RegisterFamily(Family{
		Name: "tageloop",
		Doc:  "TAGE with a loop-termination override table",
		Params: []Param{
			{Name: "tables", Default: 4, Min: 1, Max: 16, Doc: "tagged tables"},
			{Name: "entries", Default: 1024, Min: 16, Max: 1 << 16, Pow2: true, Doc: "entries per tagged table"},
			{Name: "hist", Default: 64, Min: 2, Max: 64, Doc: "longest history length"},
			{Name: "tag", Default: 8, Min: 4, Max: 15, Doc: "partial tag bits"},
			{Name: "base", Default: 2048, Min: 16, Max: 1 << 20, Pow2: true, Doc: "base bimodal entries"},
			{Name: "seed", Default: 1, Min: 1, Max: 1 << 30, Doc: "allocation PRNG seed"},
			{Name: "loops", Default: 64, Min: 4, Max: 1 << 12, Pow2: true, Doc: "loop table entries"},
			{Name: "conf", Default: 3, Min: 1, Max: 15, Doc: "confirmed trips before overriding"},
			btbParam(2048),
		},
		Build: func(p map[string]int) (*Unit, error) {
			dir, err := NewTAGELoop(tageParams(p), p["loops"], p["conf"])
			if err != nil {
				return nil, err
			}
			btb, err := btbFor(p["btb"])
			if err != nil {
				return nil, err
			}
			return NewUnit(dir, btb), nil
		},
		shadow: func(p map[string]int, z *Zoo) (zooMember, error) {
			l, err := z.loopTable(p["loops"], p["conf"])
			if err != nil {
				return zooMember{}, err
			}
			d, err := z.tage(tageParams(p))
			return zooMember{loop: l, dir: d}, err
		},
	})
}
