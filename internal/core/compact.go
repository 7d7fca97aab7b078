package core

import "fmt"

// layoutCounts[n] is aₙ, the number of possible SALSA layouts of a block of
// 2^n base counters: a₀ = 1, aₙ = aₙ₋₁² + 1 (Appendix A). a₅ = 458330 and
// a₆ = 210066388901 both fit comfortably in a uint64.
var layoutCounts = [7]uint64{1, 2, 5, 26, 677, 458330, 210066388901}

// groupEncodingBits[n] is zₙ = ⌈log₂ aₙ⌉, the bits needed to encode one
// group of 2^n counters. z₅/2⁵ = 19/32 ≈ 0.594 bits per counter.
var groupEncodingBits = [7]uint{0, 1, 3, 5, 10, 19, 38}

// compactLayout is the near-optimal merge encoding of Appendix A: the layout
// of each group of 2^g counters (g = max(5, maxLvl)) is a number
// X ∈ [0, a_g) packed into z_g bits. X = a_g−1 means the whole group is one
// counter; otherwise ⌊X/a_{g−1}⌋ encodes the left half and X mod a_{g−1}
// the right half, recursively.
type compactLayout struct {
	words    []uint64
	width    int
	maxLvl   uint
	groupLog uint
	nGroups  int
}

// compactGroupLog returns g = max(5, maxLvl): a group holds 32 base
// counters, or one whole top-level counter when that spans more.
func compactGroupLog(maxLvl uint) uint { return max(5, maxLvl) }

func newCompactLayout(width int, maxLvl uint) *compactLayout {
	groupLog := compactGroupLog(maxLvl)
	if _, ok := salsaGeometry(width, 64>>maxLvl, 1, true); !ok {
		panic(fmt.Sprintf("core: compact encoding needs width to be a multiple of %d, got %d", 1<<groupLog, width))
	}
	nGroups := width >> groupLog
	totalBits := uint(nGroups) * groupEncodingBits[groupLog]
	return &compactLayout{
		words:    make([]uint64, (totalBits+63)/64),
		width:    width,
		maxLvl:   maxLvl,
		groupLog: groupLog,
		nGroups:  nGroups,
	}
}

//salsa:hotpath
func (l *compactLayout) groupX(g int) uint64 {
	zbits := groupEncodingBits[l.groupLog]
	return readSpan(l.words, uint(g)*zbits, zbits)
}

func (l *compactLayout) setGroupX(g int, x uint64) {
	zbits := groupEncodingBits[l.groupLog]
	writeSpan(l.words, uint(g)*zbits, zbits, x)
}

//salsa:hotpath
func (l *compactLayout) level(i int) uint {
	g := i >> l.groupLog
	x := l.groupX(g)
	idx := i & (1<<l.groupLog - 1)
	n := l.groupLog
	for n > 0 {
		if x == layoutCounts[n]-1 {
			return n
		}
		half := layoutCounts[n-1]
		if idx < 1<<(n-1) {
			x = x / half
		} else {
			x = x % half
			idx -= 1 << (n - 1)
		}
		n--
	}
	return 0
}

func (l *compactLayout) mergeTo(i int, lvl uint) {
	if lvl > l.maxLvl {
		panic("core: merge beyond maximum level")
	}
	l.setBlockLevel(i, lvl, lvl)
}

func (l *compactLayout) split(i int, lvl uint) {
	if lvl == 0 {
		panic("core: cannot split a base counter")
	}
	l.setBlockLevel(i, lvl, lvl-1)
}

// setBlockLevel rewrites the group containing i so that the 2^blockLvl-
// aligned block containing i consists of counters of level newLvl.
func (l *compactLayout) setBlockLevel(i int, blockLvl, newLvl uint) {
	g := i >> l.groupLog
	groupSize := 1 << l.groupLog
	base := g << l.groupLog

	levels := make([]uint, groupSize)
	for j := 0; j < groupSize; j++ {
		levels[j] = l.level(base + j)
	}
	start := i&^(1<<blockLvl-1) - base
	for j := start; j < start+1<<blockLvl; j++ {
		levels[j] = newLvl
	}
	l.setGroupX(g, encodeLevels(levels, 0, l.groupLog))
}

// encodeLevels encodes the layout of the 2^n-slot block of levels starting
// at base, inverting the decode walk of level().
func encodeLevels(levels []uint, base int, n uint) uint64 {
	if n == 0 {
		return 0
	}
	if levels[base] >= n {
		return layoutCounts[n] - 1
	}
	left := encodeLevels(levels, base, n-1)
	right := encodeLevels(levels, base+1<<(n-1), n-1)
	return left*layoutCounts[n-1] + right
}

// valid reports whether every group's number X is below a_g and decodes
// to counters of at most maxLvl, as the numbers merges write do. A decoder
// checks it before trusting payload words: level() reads any number, and
// a counter above maxLvl is one no merge kernel can widen.
func (l *compactLayout) valid() bool {
	for g := range l.nGroups {
		if x := l.groupX(g); x >= layoutCounts[l.groupLog] || !withinLevel(x, l.groupLog, l.maxLvl) {
			return false
		}
	}
	return true
}

// withinLevel reports whether the 2^n-slot block whose layout number is
// x < aₙ holds no counter above level maxLvl, walking level()'s decode.
func withinLevel(x uint64, n, maxLvl uint) bool {
	if n <= maxLvl {
		return true
	}
	if x == layoutCounts[n]-1 {
		return false
	}
	half := layoutCounts[n-1]
	return withinLevel(x/half, n-1, maxLvl) && withinLevel(x%half, n-1, maxLvl)
}

func (l *compactLayout) overheadBits() int {
	return l.nGroups * int(groupEncodingBits[l.groupLog])
}

func (l *compactLayout) clone() layout {
	c := *l
	c.words = make([]uint64, len(l.words))
	copy(c.words, l.words)
	return &c
}

// reset restores the all-unmerged state: X = 0 encodes level 0 everywhere.
func (l *compactLayout) reset() {
	for i := range l.words {
		l.words[i] = 0
	}
}
