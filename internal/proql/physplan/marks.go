package physplan

// markPageBits is the span of one marks page: 4096 codes in 512 bytes.
const markPageBits = 1 << 12

type markPage [markPageBits / 64]uint64

// marks is a set of uint64 codes (node codes or ordinals) held as bits
// in pages allocated on first touch, so memory follows the marked set
// and never the largest code. The page touched last is cached: handles
// interned together are marked together. The first page lives outside
// the page map, which a set spanning one page never allocates.
type marks struct {
	pages map[uint64]*markPage // every page, once there are two
	last  *markPage
	lastN uint64 // page number of last
}

// mark adds c, reporting whether it was not yet marked.
func (m *marks) mark(c uint64) bool {
	n := c / markPageBits
	p := m.last
	if p == nil || n != m.lastN {
		p = m.pages[n]
		if p == nil {
			if m.last != nil && m.pages == nil {
				m.pages = map[uint64]*markPage{m.lastN: m.last}
			}
			p = new(markPage)
			if m.pages != nil {
				m.pages[n] = p
			}
		}
		m.last, m.lastN = p, n
	}
	w, bit := c%markPageBits/64, uint64(1)<<(c%64)
	if p[w]&bit != 0 {
		return false
	}
	p[w] |= bit
	return true
}

// reset empties the set, keeping its pages for the next use.
func (m *marks) reset() {
	for _, p := range m.pages {
		clear(p[:])
	}
	if m.last != nil {
		clear(m.last[:])
	}
}
