package cache

// lru implements least-recently-used replacement with per-line
// timestamps, stored flat like the tag store: way w of set s at
// s*ways+w.
type lru struct {
	stamp []uint64
	ways  int
	clock uint64
}

// NewLRU constructs an LRU policy for a (sets × ways) cache.
func NewLRU(sets, ways int) Replacement {
	return &lru{stamp: make([]uint64, sets*ways), ways: ways}
}

func (l *lru) touch(set, way int) {
	l.clock++
	l.stamp[set*l.ways+way] = l.clock
}

func (l *lru) OnHit(set, way int)  { l.touch(set, way) }
func (l *lru) OnMiss(set int)      {}
func (l *lru) OnFill(set, way int) { l.touch(set, way) }

func (l *lru) Victim(set int) int {
	row := l.stamp[set*l.ways : (set+1)*l.ways]
	best, bestStamp := 0, row[0]
	for w := 1; w < len(row); w++ {
		if row[w] < bestStamp {
			best, bestStamp = w, row[w]
		}
	}
	return best
}

// DRRIP constants (Jaleel et al., ISCA 2010): 2-bit re-reference
// prediction values, set dueling between SRRIP and BRRIP with a 10-bit
// policy selector.
const (
	rrpvMax      = 3    // distant re-reference
	rrpvLong     = 2    // long re-reference (SRRIP insertion)
	pselMax      = 1023 // 10-bit saturating selector
	duelPeriod   = 32   // one leader set per 32 sets per policy
	brripEpsilon = 32   // BRRIP inserts "long" once every 32 fills
)

// drrip keeps one RRPV per line, flat like the tag store.
type drrip struct {
	rrpv    []uint8
	ways    int
	psel    int
	fillSeq uint64
}

// NewDRRIP constructs a DRRIP policy for a (sets × ways) cache.
func NewDRRIP(sets, ways int) Replacement {
	r := make([]uint8, sets*ways)
	for i := range r {
		r[i] = rrpvMax
	}
	return &drrip{rrpv: r, ways: ways, psel: pselMax / 2}
}

// leader classifies a set: +1 SRRIP leader, -1 BRRIP leader, 0 follower.
func (d *drrip) leader(set int) int {
	switch set % duelPeriod {
	case 0:
		return 1
	case duelPeriod / 2:
		return -1
	default:
		return 0
	}
}

func (d *drrip) OnHit(set, way int) { d.rrpv[set*d.ways+way] = 0 }

func (d *drrip) OnMiss(set int) {
	// A miss in a leader set is a vote against that leader's policy.
	switch d.leader(set) {
	case 1: // SRRIP leader missed → favour BRRIP
		if d.psel > 0 {
			d.psel--
		}
	case -1: // BRRIP leader missed → favour SRRIP
		if d.psel < pselMax {
			d.psel++
		}
	}
}

// useSRRIP decides the insertion policy for this set.
func (d *drrip) useSRRIP(set int) bool {
	switch d.leader(set) {
	case 1:
		return true
	case -1:
		return false
	default:
		return d.psel >= pselMax/2
	}
}

func (d *drrip) OnFill(set, way int) {
	d.fillSeq++
	i := set*d.ways + way
	if d.useSRRIP(set) {
		d.rrpv[i] = rrpvLong
		return
	}
	// BRRIP: distant re-reference, with an occasional long insertion.
	if d.fillSeq%brripEpsilon == 0 {
		d.rrpv[i] = rrpvLong
	} else {
		d.rrpv[i] = rrpvMax
	}
}

func (d *drrip) Victim(set int) int {
	row := d.rrpv[set*d.ways : (set+1)*d.ways]
	for {
		for w, v := range row {
			if v == rrpvMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}
