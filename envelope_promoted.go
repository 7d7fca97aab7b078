package salsa

import (
	"encoding/binary"

	"salsa/internal/aee"
	"salsa/internal/coldfilter"
	"salsa/internal/core"
	"salsa/internal/hashing"
	"salsa/internal/pyramid"
	"salsa/internal/sketch"
	"salsa/internal/topk"
	"salsa/internal/univmon"
)

// Envelope codecs for the sketches promoted into the Spec algebra:
// UnivMon, AEE, Distinct, WindowedDistinct, ColdFilter and Pyramid. The
// formats follow the existing envelope discipline — declared Options are
// re-validated with the same rules Build enforces, every geometry is
// checked against the payload before (or by) allocation, decoded sketches
// are fully operational, and re-marshaling reproduces the payload byte
// for byte. Derivable state (hash seeds, UnivMon's sampling seed, the
// filter and pyramid layer geometry) is re-derived from the Options
// rather than stored, so a payload cannot smuggle an inconsistent
// combination.

// marshalUnivMon encodes a UnivMon payload: the Options, the level and
// heap-capacity geometry, the volume odometer, then one Count Sketch
// block plus one candidate heap per level.
func marshalUnivMon(u *UnivMon) ([]byte, error) {
	buf := appendOptions(envHeader(tagUnivMon, optionsHeaderLen+24), u.opt)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.levels))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(u.k))
	buf = binary.LittleEndian.AppendUint64(buf, u.um.Volume())
	for j := 0; j < u.um.Levels(); j++ {
		payload, err := u.um.LevelSketch(j).MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendBlock(buf, payload)
		buf = appendHeap(buf, u.um.LevelHeap(j))
	}
	return buf, nil
}

// unmarshalUnivMon decodes a UnivMon payload. Every level sketch is
// verified compatible with a reference built from the declared Options and
// the level's derived seed — the same check the windowed ring decoder
// runs — so the levels provably share the declared geometry, mode, and
// seed family before univmon.Restore rebuilds the stack.
func unmarshalUnivMon(data []byte) (Sketch, error) {
	opt, rest, err := readOptions(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < 3*8 {
		return nil, ErrBadPayload
	}
	levels := binary.LittleEndian.Uint64(rest)
	k := binary.LittleEndian.Uint64(rest[8:])
	volume := binary.LittleEndian.Uint64(rest[16:])
	rest = rest[24:]
	if levels == 0 || levels > maxUnivMonLevels || k == 0 || k > maxHeapK {
		return nil, ErrBadPayload
	}
	spec := leafSpec{kind: kindUnivMon, opt: opt, k: int(k), levels: int(levels)}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(5, MergeSum)
	seeds := hashing.Seeds(opt.Seed, int(levels)+1)
	css := make([]*sketch.CountSketch, levels)
	heaps := make([]*topk.Heap, levels)
	for j := range css {
		block, r, err := readBlock(rest)
		if err != nil {
			return nil, err
		}
		cs, err := sketch.UnmarshalCountSketch(block)
		if err != nil {
			return nil, err
		}
		// Cheap geometry pre-check before the reference allocation: the
		// decoded sketch (whose own allocation is payload-bounded) must
		// already claim the declared shape.
		if cs.Depth() != opt.Depth || cs.Width() != opt.Width {
			return nil, ErrBadPayload
		}
		ref := sketch.NewCountSketch(opt.Depth, opt.Width, signedRowSpec(opt), seeds[j])
		if err := ref.CompatibleWith(cs); err != nil {
			return nil, err
		}
		heap, r, err := readHeap(r, int(k))
		if err != nil {
			return nil, err
		}
		css[j], heaps[j], rest = cs, heap, r
	}
	if len(rest) != 0 {
		return nil, ErrBadPayload
	}
	um, err := univmon.Restore(css, heaps, seeds[levels], volume)
	if err != nil {
		return nil, err
	}
	return &UnivMon{um: um, opt: opt, levels: int(levels), k: int(k)}, nil
}

// marshalAEE encodes an AEE payload: the Options (whose Mode implies the
// backend), the sampling odometer, then one row block per sketch row.
func marshalAEE(a *AEE) ([]byte, error) {
	buf := appendOptions(envHeader(tagAEE, optionsHeaderLen), a.opt)
	if a.est != nil {
		for _, v := range []uint64{
			uint64(a.est.Downsamples()), a.est.SampledSince(), a.est.Processed(), a.est.RngState(),
		} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		for i := 0; i < a.est.NumRows(); i++ {
			payload, err := a.est.Row(i).MarshalBinary()
			if err != nil {
				return nil, err
			}
			buf = appendBlock(buf, payload)
		}
		return buf, nil
	}
	for _, v := range []uint64{
		uint64(a.sal.Downsamples()), a.sal.Overflows(), a.sal.Processed(), a.sal.Downsampled(), a.sal.RngState(),
	} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for i := 0; i < a.sal.NumRows(); i++ {
		payload, err := a.sal.Row(i).MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendBlock(buf, payload)
	}
	return buf, nil
}

// unmarshalAEE decodes an AEE payload; aee.Restore/RestoreSalsa validate
// the decoded rows against the declared geometry and bound the odometer.
func unmarshalAEE(data []byte) (Sketch, error) {
	opt, rest, err := readOptions(data)
	if err != nil {
		return nil, err
	}
	if err := opt.validateFor(kindAEE); err != nil {
		return nil, err
	}
	opt = aeeDefaults(opt)
	words := 5
	if opt.Mode == ModeBaseline {
		words = 4
	}
	if len(rest) < words*8 {
		return nil, ErrBadPayload
	}
	odo := make([]uint64, words)
	for i := range odo {
		odo[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	rest = rest[words*8:]
	if opt.Mode == ModeBaseline {
		rows := make([]*core.Fixed, opt.Depth)
		for i := range rows {
			block, r, err := readBlock(rest)
			if err != nil {
				return nil, err
			}
			if rows[i], err = core.UnmarshalFixed(block); err != nil {
				return nil, err
			}
			rest = r
		}
		if len(rest) != 0 {
			return nil, ErrBadPayload
		}
		if odo[0] > 64 {
			return nil, ErrBadPayload
		}
		est, err := aee.Restore(aee.Config{
			Rows: opt.Depth, Width: opt.Width, CounterBits: opt.CounterBits,
			Probabilistic: true, Seed: opt.Seed,
		}, rows, uint(odo[0]), odo[1], odo[2], odo[3])
		if err != nil {
			return nil, err
		}
		return &AEE{opt: opt, est: est}, nil
	}
	rows := make([]*core.Salsa, opt.Depth)
	for i := range rows {
		block, r, err := readBlock(rest)
		if err != nil {
			return nil, err
		}
		if rows[i], err = core.UnmarshalSalsa(block); err != nil {
			return nil, err
		}
		rest = r
	}
	if len(rest) != 0 {
		return nil, ErrBadPayload
	}
	if odo[0] > 64 {
		return nil, ErrBadPayload
	}
	sal, err := aee.RestoreSalsa(aee.SalsaConfig{
		Rows: opt.Depth, Width: opt.Width, S: opt.CounterBits,
		Delta: aeeDelta, Seed: opt.Seed,
	}, rows, uint(odo[0]), odo[1], odo[2], odo[3], odo[4])
	if err != nil {
		return nil, err
	}
	return &AEE{opt: opt, sal: sal}, nil
}

// unmarshalDistinct decodes a Distinct payload: one backing CountMin
// block, re-validated with the Distinct build rules (plain CountMin only,
// and no Tango rows — they cannot report the zero fraction Linear
// Counting needs).
func unmarshalDistinct(payload []byte) (Sketch, error) {
	block, rest, err := readBlock(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrBadPayload
	}
	cm, err := UnmarshalCountMin(block)
	if err != nil {
		return nil, err
	}
	if cm.conservative {
		return nil, ErrBadPayload
	}
	if err := cm.opt.validateFor(kindDistinct); err != nil {
		return nil, err
	}
	return &Distinct{cm: cm}, nil
}

// unmarshalWindowedDistinct decodes a WindowedDistinct payload: the inner
// windowed CMS ring, re-validated with the Distinct build rules.
func unmarshalWindowedDistinct(payload []byte) (Sketch, error) {
	w, rest, err := unmarshalWindowedCMS(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 || w.conservative {
		return nil, ErrBadPayload
	}
	if err := w.opt.validateFor(kindDistinct); err != nil {
		return nil, err
	}
	return &WindowedDistinct{w: w}, nil
}

// marshalColdFilter encodes a ColdFilter payload: the stage-2 volume
// odometer, the two filter layers, and the second-stage sketch (whose own
// Options block carries the topology's configuration — the layer geometry
// and seeds are derived from it, never stored).
func marshalColdFilter(c *ColdFilter) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64(envHeader(tagColdFilter, 8), c.cf.Stage2Volume())
	l1, err := c.cf.Layer1().MarshalBinary()
	if err != nil {
		return nil, err
	}
	l2, err := c.cf.Layer2().MarshalBinary()
	if err != nil {
		return nil, err
	}
	stage2, err := c.stage2.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf = appendBlock(buf, l1)
	buf = appendBlock(buf, l2)
	return appendBlock(buf, stage2), nil
}

// unmarshalColdFilter decodes a ColdFilter payload, re-deriving the layer
// geometry from the decoded second stage's Options exactly as the builder
// does; coldfilter.Restore validates the layer arrays against it.
func unmarshalColdFilter(data []byte) (Sketch, error) {
	if len(data) < 8 {
		return nil, ErrBadPayload
	}
	stage2Hits := binary.LittleEndian.Uint64(data)
	b1, rest, err := readBlock(data[8:])
	if err != nil {
		return nil, err
	}
	b2, rest, err := readBlock(rest)
	if err != nil {
		return nil, err
	}
	b3, rest, err := readBlock(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrBadPayload
	}
	l1, err := core.UnmarshalFixed(b1)
	if err != nil {
		return nil, err
	}
	l2, err := core.UnmarshalFixed(b2)
	if err != nil {
		return nil, err
	}
	stage2, err := UnmarshalCountMin(b3)
	if err != nil {
		return nil, err
	}
	opt := stage2.opt
	if err := validateFilterWidth(opt.Width); err != nil {
		return nil, err
	}
	cf, err := coldfilter.Restore(coldfilter.Config{
		W1: 4 * opt.Width, W2: opt.Width, D1: 3, D2: 3, Seed: filterSeed(opt.Seed),
	}, l1, l2, stage2Hits, stage2.sk)
	if err != nil {
		return nil, err
	}
	return &ColdFilter{cf: cf, stage2: stage2, opt: opt, conservative: stage2.conservative}, nil
}

// marshalPyramid encodes a Pyramid payload: the Options and the byte
// arena; the layer layout is a pure function of the Options.
func marshalPyramid(p *Pyramid) ([]byte, error) {
	state := p.py.State()
	buf := appendOptions(envHeader(tagPyramid, optionsHeaderLen+8+len(state)), p.opt)
	return appendBlock(buf, state), nil
}

// unmarshalPyramid decodes a Pyramid payload; pyramid.Restore checks the
// arena length against the declared geometry before allocating the rows.
func unmarshalPyramid(data []byte) (Sketch, error) {
	opt, rest, err := readOptions(data)
	if err != nil {
		return nil, err
	}
	if err := opt.validateFor(kindCountMin); err != nil {
		return nil, err
	}
	if err := validatePyramidWidth(opt.Width); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(4, MergeSum)
	state, rest, err := readBlock(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrBadPayload
	}
	py, err := pyramid.Restore(opt.Depth, opt.Width, pyramidLayers, opt.Seed, state)
	if err != nil {
		return nil, err
	}
	return &Pyramid{py: py, opt: opt}, nil
}
