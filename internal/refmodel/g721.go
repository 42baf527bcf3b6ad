package refmodel

// CCITT G.721 32 kbit/s ADPCM, after the classic Sun Microsystems
// reference implementation (g72x.c / g721.c) shipped with MediaBench.
// All arithmetic is int32; the reference's short-typed "floating
// point" predictor operands stay within 16-bit ranges, and negative
// encodings (e.g. 0xFC20) are carried as their signed values (-992) so
// sign tests behave identically.

// power2 is the exponent table used by quan.
var power2 = [15]int32{1, 2, 4, 8, 0x10, 0x20, 0x40, 0x80, 0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000, 0x4000}

// qtab721 is the G.721 quantizer decision-level table.
var qtab721 = [7]int32{-124, 80, 178, 246, 300, 349, 400}

// dqlntab maps the 4-bit code to log2(dq) values.
var dqlntab = [16]int32{-2048, 4, 135, 213, 273, 323, 373, 425,
	425, 373, 323, 273, 213, 135, 4, -2048}

// witab is the quantizer scale-factor multiplier table (pre-shifted by
// 5 at the call sites, as in the reference).
var witab = [16]int32{-12, 18, 41, 64, 112, 198, 355, 1122,
	1122, 355, 198, 112, 64, 41, 18, -12}

// fitab drives the speed-control parameter update.
var fitab = [16]int32{0, 0, 0, 0x200, 0x200, 0x200, 0x600, 0xE00,
	0xE00, 0x600, 0x200, 0x200, 0x200, 0, 0, 0}

// G721State is the complete coder state (struct g72x_state).
type G721State struct {
	YL  int32    // locked quantizer scale factor (19 bits)
	YU  int32    // unlocked quantizer scale factor
	DMS int32    // short-term energy estimate
	DML int32    // long-term energy estimate
	AP  int32    // speed control parameter
	A   [2]int32 // pole predictor coefficients
	B   [6]int32 // zero predictor coefficients
	PK  [2]int32 // signs of previous dqsez
	DQ  [6]int32 // previous difference signals ("float" format)
	SR  [2]int32 // previous reconstructed signals ("float" format)
	TD  int32    // tone detect flag
}

// NewG721State returns the reset state of g72x_init_state.
func NewG721State() *G721State {
	s := &G721State{YL: 34816, YU: 544}
	for i := range s.DQ {
		s.DQ[i] = 32
	}
	s.SR[0], s.SR[1] = 32, 32
	return s
}

// quan is the linear table search the paper highlights as a classic
// hard-to-predict branch kernel.
func quan(val int32, table []int32) int32 {
	var i int32
	for int(i) < len(table) {
		if val < table[i] {
			break
		}
		i++
	}
	return i
}

// fmult multiplies the predictor coefficient an with the "floating
// point" signal srn.
func fmult(an, srn int32) int32 {
	anmag := an
	if an <= 0 {
		anmag = (-an) & 0x1FFF
	}
	anexp := quan(anmag, power2[:]) - 6
	var anmant int32
	switch {
	case anmag == 0:
		anmant = 32
	case anexp >= 0:
		anmant = anmag >> uint(anexp)
	default:
		anmant = anmag << uint(-anexp)
	}
	wanexp := anexp + ((srn >> 6) & 0xF) - 13
	wanmant := (anmant*(srn&077) + 0x30) >> 4
	var retval int32
	if wanexp >= 0 {
		retval = (wanmant << uint(wanexp)) & 0x7FFF
	} else {
		retval = wanmant >> uint(-wanexp)
	}
	if (an ^ srn) < 0 {
		return -retval
	}
	return retval
}

// predictorZero computes the zero-predictor contribution (sezi).
func (s *G721State) predictorZero() int32 {
	sezi := fmult(s.B[0]>>2, s.DQ[0])
	for i := 1; i < 6; i++ {
		sezi += fmult(s.B[i]>>2, s.DQ[i])
	}
	return sezi
}

// predictorPole computes the pole-predictor contribution.
func (s *G721State) predictorPole() int32 {
	return fmult(s.A[1]>>2, s.SR[1]) + fmult(s.A[0]>>2, s.SR[0])
}

// stepSize computes the working quantizer step size y.
func (s *G721State) stepSize() int32 {
	if s.AP >= 256 {
		return s.YU
	}
	y := s.YL >> 6
	dif := s.YU - y
	al := s.AP >> 2
	if dif > 0 {
		y += (dif * al) >> 6
	} else if dif < 0 {
		y += (dif*al + 0x3F) >> 6
	}
	return y
}

// quantize maps the estimated difference d to a 4-bit code.
func quantize(d, y int32, table []int32) int32 {
	dqm := d
	if d < 0 {
		dqm = -d
	}
	exp := quan(dqm>>1, power2[:])
	mant := ((dqm << 7) >> uint(exp)) & 0x7F
	dl := (exp << 7) + mant
	dln := dl - (y >> 2)
	i := quan(dln, table)
	size := int32(len(table))
	if d < 0 {
		return (size << 1) + 1 - i
	}
	if i == 0 {
		return (size << 1) + 1
	}
	return i
}

// reconstruct rebuilds the quantized difference signal.
func reconstruct(sign bool, dqln, y int32) int32 {
	dql := dqln + (y >> 2)
	if dql < 0 {
		if sign {
			return -0x8000
		}
		return 0
	}
	dex := (dql >> 7) & 15
	dqt := 128 + (dql & 127)
	dq := (dqt << 7) >> uint(14-dex)
	if sign {
		return dq - 0x8000
	}
	return dq
}

// update performs the predictor and quantizer state adaptation
// (the reference's large update() — the branchiest part of the coder).
func (s *G721State) update(codeSize, y, wi, fi, dq, sr, dqsez int32) {
	var pk0 int32
	if dqsez < 0 {
		pk0 = 1
	}
	mag := dq & 0x7FFF

	// Transition detect.
	ylint := s.YL >> 15
	ylfrac := (s.YL >> 10) & 0x1F
	thr1 := (32 + ylfrac) << uint(ylint)
	thr2 := thr1
	if ylint > 9 {
		thr2 = 31 << 10
	}
	dqthr := (thr2 + (thr2 >> 1)) >> 1
	var tr int32
	if s.TD != 0 && mag > dqthr {
		tr = 1
	}

	// Quantizer scale factor adaptation.
	s.YU = y + ((wi - y) >> 5)
	if s.YU < 544 {
		s.YU = 544
	} else if s.YU > 5120 {
		s.YU = 5120
	}
	s.YL += s.YU + ((-s.YL) >> 6)

	// Adaptive predictor coefficients.
	var a2p int32
	if tr == 1 {
		s.A[0], s.A[1] = 0, 0
		for i := range s.B {
			s.B[i] = 0
		}
	} else {
		pks1 := pk0 ^ s.PK[0]
		a2p = s.A[1] - (s.A[1] >> 7)
		if dqsez != 0 {
			var fa1 int32
			if pks1 != 0 {
				fa1 = s.A[0]
			} else {
				fa1 = -s.A[0]
			}
			if fa1 < -8191 {
				a2p -= 0x100
			} else if fa1 > 8191 {
				a2p += 0xFF
			} else {
				a2p += fa1 >> 5
			}
			if pk0^s.PK[1] != 0 {
				if a2p <= -12160 {
					a2p = -12288
				} else if a2p >= 12416 {
					a2p = 12288
				} else {
					a2p -= 0x80
				}
			} else if a2p <= -12416 {
				a2p = -12288
			} else if a2p >= 12160 {
				a2p = 12288
			} else {
				a2p += 0x80
			}
		}
		s.A[1] = a2p

		s.A[0] -= s.A[0] >> 8
		if dqsez != 0 {
			if pks1 == 0 {
				s.A[0] += 192
			} else {
				s.A[0] -= 192
			}
		}
		a1ul := int32(15360) - a2p
		if s.A[0] < -a1ul {
			s.A[0] = -a1ul
		} else if s.A[0] > a1ul {
			s.A[0] = a1ul
		}

		for cnt := 0; cnt < 6; cnt++ {
			if codeSize == 5 {
				s.B[cnt] -= s.B[cnt] >> 9
			} else {
				s.B[cnt] -= s.B[cnt] >> 8
			}
			if dq&0x7FFF != 0 {
				if (dq ^ s.DQ[cnt]) >= 0 {
					s.B[cnt] += 128
				} else {
					s.B[cnt] -= 128
				}
			}
		}
	}

	// Difference signal history (in "float" format).
	for cnt := 5; cnt > 0; cnt-- {
		s.DQ[cnt] = s.DQ[cnt-1]
	}
	if mag == 0 {
		if dq >= 0 {
			s.DQ[0] = 0x20
		} else {
			s.DQ[0] = 0x20 - 0x400
		}
	} else {
		exp := quan(mag, power2[:])
		if dq >= 0 {
			s.DQ[0] = (exp << 6) + ((mag << 6) >> uint(exp))
		} else {
			s.DQ[0] = (exp << 6) + ((mag << 6) >> uint(exp)) - 0x400
		}
	}

	// Reconstructed signal history.
	s.SR[1] = s.SR[0]
	switch {
	case sr == 0:
		s.SR[0] = 0x20
	case sr > 0:
		exp := quan(sr, power2[:])
		s.SR[0] = (exp << 6) + ((sr << 6) >> uint(exp))
	case sr > -32768:
		m := -sr
		exp := quan(m, power2[:])
		s.SR[0] = (exp << 6) + ((m << 6) >> uint(exp)) - 0x400
	default:
		s.SR[0] = 0x20 - 0x400
	}

	s.PK[1] = s.PK[0]
	s.PK[0] = pk0

	// Tone detect.
	switch {
	case tr == 1:
		s.TD = 0
	case a2p < -11776:
		s.TD = 1
	default:
		s.TD = 0
	}

	// Speed control.
	s.DMS += (fi - s.DMS) >> 5
	s.DML += ((fi << 2) - s.DML) >> 7
	switch {
	case tr == 1:
		s.AP = 256
	case y < 1536:
		s.AP += (0x200 - s.AP) >> 4
	case s.TD == 1:
		s.AP += (0x200 - s.AP) >> 4
	case abs32((s.DMS<<2)-s.DML) >= s.DML>>3:
		s.AP += (0x200 - s.AP) >> 4
	default:
		s.AP += (-s.AP) >> 4
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// G721EncodeSample encodes one 16-bit linear PCM sample to a 4-bit code.
func G721EncodeSample(sl int32, s *G721State) int32 {
	sl >>= 2 // 14-bit linear input
	sezi := s.predictorZero()
	sez := sezi >> 1
	sei := sezi + s.predictorPole()
	se := sei >> 1
	d := sl - se
	y := s.stepSize()
	i := quantize(d, y, qtab721[:])
	dq := reconstruct(i&8 != 0, dqlntab[i], y)
	var sr int32
	if dq < 0 {
		sr = se - (dq & 0x3FFF)
	} else {
		sr = se + dq
	}
	dqsez := sr + sez - se
	s.update(4, y, witab[i]<<5, fitab[i], dq, sr, dqsez)
	return i
}

// G721DecodeSample decodes one 4-bit code back to a 16-bit sample.
func G721DecodeSample(code int32, s *G721State) int32 {
	i := code & 0x0F
	sezi := s.predictorZero()
	sez := sezi >> 1
	sei := sezi + s.predictorPole()
	se := sei >> 1
	y := s.stepSize()
	dq := reconstruct(i&8 != 0, dqlntab[i], y)
	var sr int32
	if dq < 0 {
		sr = se - (dq & 0x3FFF)
	} else {
		sr = se + dq
	}
	dqsez := sr - se + sez
	s.update(4, y, witab[i]<<5, fitab[i], dq, sr, dqsez)
	return sr << 2
}

// G721Encode encodes a sample stream.
func G721Encode(in []int32) []int32 {
	s := NewG721State()
	out := make([]int32, len(in))
	for i, v := range in {
		out[i] = G721EncodeSample(v, s)
	}
	return out
}

// G721Decode decodes a code stream.
func G721Decode(codes []int32) []int32 {
	s := NewG721State()
	out := make([]int32, len(codes))
	for i, c := range codes {
		out[i] = G721DecodeSample(c, s)
	}
	return out
}
