package predict

import "slices"

// Zoo is a set of shadow direction predictors stepped together on one
// branch stream, as a predictability study replays it. Its members
// predict exactly as the same specs built one by one (Spec.Build().Dir)
// and stepped predict-then-update would, but each distinct component
// is built and trained once: a loop predictor's bimodal fallback is
// the bimodal member of the same size, and a TAGE-loop composite holds
// the TAGE and the loop table of its equal standalone members. Only
// components of equal configuration are shared (bimodal by size,
// gshare by history and size, TAGE by its whole configuration, seed
// included, loop tables by size and confidence), and no member gets a
// BTB.
//
// Sharing cannot change a prediction: every component trains on every
// outcome of the stream whichever member it serves, and Predict reads
// all members from the state before the outcome, then Update trains
// each component once. For independent predictors that is the order of
// stepping them one at a time.
type Zoo struct {
	names   []string
	members []zooMember
	// dirs are the distinct direction components (bimodal, gshare,
	// TAGE and not-taken), loops the distinct loop tables.
	dirs    []DirectionPredictor
	loops   []*loopTable
	index   map[any]int // component key -> index in dirs or loops (the key's type says which)
	dirPred []bool      // dirs' predictions for the branch in Predict
}

// zooMember is one member's prediction rule: the loop table that
// overrides when confident (-1 for none), else the direction component.
type zooMember struct {
	loop, dir int
}

// Component keys: two components are shared exactly when their keys
// are equal.
type (
	bimodalKey struct{ entries int }
	gshareKey  struct{ hist, entries int }
	loopKey    struct{ entries, conf int }
)

// NewZoo builds the shadow set of the given predictor specs, in order.
// Member i is named as spec i's direction predictor is.
func NewZoo(specs ...string) (*Zoo, error) {
	z := &Zoo{index: make(map[any]int)}
	for _, s := range specs {
		spec, err := ParseSpec(s)
		if err != nil {
			return nil, err
		}
		m, err := families[spec.Family].shadow(spec.Params, z)
		if err != nil {
			return nil, err
		}
		name := z.dirs[m.dir].Name()
		if m.loop >= 0 {
			name = z.loops[m.loop].name(z.dirs[m.dir])
		}
		z.members = append(z.members, m)
		z.names = append(z.names, name)
	}
	z.dirPred = make([]bool, len(z.dirs))
	return z, nil
}

// component returns the index in *list of the component keyed by key,
// building it with mk if the zoo has none yet.
func component[T any](z *Zoo, list *[]T, key any, mk func() (T, error)) (int, error) {
	if i, ok := z.index[key]; ok {
		return i, nil
	}
	c, err := mk()
	if err != nil {
		return 0, err
	}
	z.index[key] = len(*list)
	*list = append(*list, c)
	return len(*list) - 1, nil
}

func (z *Zoo) dir(key any, mk func() (DirectionPredictor, error)) (int, error) {
	return component(z, &z.dirs, key, mk)
}

func (z *Zoo) bimodal(entries int) (int, error) {
	return z.dir(bimodalKey{entries}, func() (DirectionPredictor, error) { return NewBimodal(entries) })
}

func (z *Zoo) tage(cfg TAGEConfig) (int, error) {
	return z.dir(cfg.filled(), func() (DirectionPredictor, error) { return NewTAGE(cfg) })
}

func (z *Zoo) loopTable(entries, conf int) (int, error) {
	return component(z, &z.loops, loopKey{entries, conf}, func() (*loopTable, error) { return newLoopTable(entries, conf) })
}

// Names lists the members' names in order.
func (z *Zoo) Names() []string { return slices.Clone(z.names) }

// Predict sets pred[i] to member i's prediction for the conditional
// branch at pc. It probes each component once and trains nothing.
func (z *Zoo) Predict(pc uint32, pred []bool) {
	for i, d := range z.dirs {
		z.dirPred[i] = d.Predict(pc)
	}
	for i, m := range z.members {
		pred[i] = z.dirPred[m.dir]
		if m.loop >= 0 {
			if taken, ok := z.loops[m.loop].predict(pc); ok {
				pred[i] = taken
			}
		}
	}
}

// Update trains every component once with the branch's outcome.
func (z *Zoo) Update(pc uint32, taken bool) {
	for _, d := range z.dirs {
		d.Update(pc, taken)
	}
	for _, l := range z.loops {
		l.update(pc, taken)
	}
}

// Reset restores every component's power-on state.
func (z *Zoo) Reset() {
	for _, d := range z.dirs {
		d.Reset()
	}
	for _, l := range z.loops {
		l.reset()
	}
}
