package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Table is the NLS-table: a tag-less, direct-mapped buffer of NLS entries
// indexed by the low-order bits of the branch instruction's address (§4.1).
// Because the table has no tags, two branches that alias to the same entry
// can use each other's prediction state; the paper shows this effect is
// small compared with the benefits of decoupling.
type Table struct {
	entries []Entry
	geom    cache.Geometry
	mask    uint32
}

// NewTable builds an NLS-table with the given number of entries (a power of
// two; the paper evaluates 512, 1024, and 2048) for a cache of the given
// geometry.
func NewTable(entries int, g cache.Geometry) *Table {
	if entries <= 0 || bits.OnesCount(uint(entries)) != 1 {
		panic(fmt.Sprintf("core: table entries %d must be a positive power of two", entries))
	}
	return &Table{
		entries: make([]Entry, entries),
		geom:    g,
		mask:    uint32(entries - 1),
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// Geometry returns the cache geometry the table's pointers refer to.
func (t *Table) Geometry() cache.Geometry { return t.geom }

func (t *Table) index(pc isa.Addr) uint32 { return pc.Word() & t.mask }

// Entries returns the table's backing entries, indexed by the low-order
// word-address bits of the branch PC. A replay path that computes the
// geometry-free fields once for many tables (fetch's table annotation)
// keeps each table's ways here and rebuilds the rest when it hands off.
func (t *Table) Entries() []Entry { return t.entries }

// Lookup returns the entry for the branch at pc. Tag-less: it always
// returns an entry, possibly one written by an aliasing branch.
func (t *Table) Lookup(pc isa.Addr) Entry { return t.entries[t.index(pc)] }

// Update trains the entry after the branch at pc resolves. All branches
// update the type field; only taken branches update the pointer, so a
// not-taken conditional preserves the pointer to its taken target (§4:
// "A conditional branch which executes the fall-through should not update
// the set and line field, since that would erase the pointer to the target
// instruction").
//
// For taken branches, target is the branch destination and way is the way
// of the cache set where the destination line resides (0 for direct
// mapped).
func (t *Table) Update(pc isa.Addr, kind isa.Kind, taken bool, target isa.Addr, way int) {
	e := &t.entries[t.index(pc)]
	e.Type = TypeForKind(kind)
	if taken {
		e.Set, e.Offset, e.Way = pointerFor(t.geom, target, way)
	}
}

// SizeBits returns the table's storage cost in bits.
func (t *Table) SizeBits() int { return len(t.entries) * EntryBits(t.geom) }

// Name identifies the table for reports, e.g. "1024 NLS-table".
func (t *Table) Name() string { return fmt.Sprintf("%d NLS-table", len(t.entries)) }

// Reset invalidates every entry.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i] = Entry{}
	}
}
