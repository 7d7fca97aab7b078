package core

// Word-for-word row copies. A copy moves everything MarshalBinary writes
// (counters, merge layout, Tango's merge count) from one array into
// another of the same shape, so the destination marshals to the source's
// bytes and the two share no storage. A caller that keeps a spare array
// copies a row at the cost of its words, where a marshal round trip
// would allocate and decode a new one.

// CopyFrom makes f a copy of other; both must share geometry.
func (f *Fixed) CopyFrom(other *Fixed) { f.copyFrom(&other.fixedArray, f.SameGeometry(other)) }

// CopyFrom makes f a copy of other; both must share geometry.
func (f *FixedSign) CopyFrom(other *FixedSign) {
	f.copyFrom(&other.fixedArray, f.SameGeometry(other))
}

// copyFrom copies other's words into f; same is the row type's verdict on
// the two geometries.
func (f *fixedArray) copyFrom(other *fixedArray, same bool) {
	if !same {
		panic("core: fixed geometry mismatch")
	}
	copy(f.words, other.words)
}

// CopyFrom makes c a copy of other, merge layout and merge count
// included; both must share geometry and merge encoding.
func (c *Salsa) CopyFrom(other *Salsa) { c.copyFrom(&other.salsaArray, c.SameGeometry(other)) }

// CopyFrom makes c a copy of other, merge layout and merge count
// included; both must share geometry and merge encoding.
func (c *SalsaSign) CopyFrom(other *SalsaSign) {
	c.copyFrom(&other.salsaArray, c.SameGeometry(other))
}

// copyFrom copies other's counter words, layout and merge count into c;
// same is the row type's verdict on the two geometries, and both must
// share the merge encoding.
func (c *salsaArray) copyFrom(other *salsaArray, same bool) {
	if !same || c.Compact() != other.Compact() {
		panic("core: SALSA geometry/encoding mismatch")
	}
	copy(c.words, other.words)
	copy(layoutWords(c.lay), layoutWords(other.lay))
	c.merges = other.merges
}

// CopyFrom makes t a copy of other, merge links and merge count included;
// both must share geometry.
func (t *Tango) CopyFrom(other *Tango) {
	if !t.SameGeometry(other) {
		panic("core: Tango geometry/policy mismatch")
	}
	copy(t.words, other.words)
	copy(t.link.Words(), other.link.Words())
	t.merges = other.merges
}
