package experiments

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/workload"
)

// A Grid is the declarative form of one experiment: the architecture arms
// to simulate and, per arm, the cache geometries to sweep them over. The
// program axis comes from the Runner's Config, so one Grid declaration
// serves any program set. Every table and figure of the evaluation is a
// Grid plus a renderer (see Figures); the executor is the only code that
// turns grids into simulations.
//
// A Grid round-trips through JSON (arch.Spec and cache.Geometry both
// serialize, the latter validated on decode), which is what lets the sweep
// service accept grids as wire-format jobs (internal/serve).
type Grid struct {
	Name string `json:"name"`
	Arms []Arm  `json:"arms"`
}

// An Arm is one architecture axis entry: a display name, the declarative
// spec, and the cache geometries to instantiate it on. An empty Caches list
// means "the spec's own geometry" (a single cell per program).
//
// Two arms of different grids whose (spec, geometry) coincide denote the
// same cell: the executor simulates it once and every renderer reads it
// under its own arm name.
type Arm struct {
	Name   string           `json:"name"`
	Spec   arch.Spec        `json:"spec"`
	Caches []cache.Geometry `json:"caches,omitempty"`
}

// A Cell is one fully resolved simulation point of a grid: a program and a
// complete spec (geometry applied). Cell identity for the executor and the
// results store is the content key — see Key — not the arm name, which is
// presentation only.
type Cell struct {
	Prog workload.Spec
	Arm  string
	Spec arch.Spec
}

// Key returns the cell's content-addressed store key under cfg's
// instruction budget; cfg.Penalties is not read, since counters do not
// depend on it. It derives the key the way Grid.Keyed does, for one cell;
// code keying a whole grid uses Keyed, which marshals each program and arm
// point once.
func (c Cell) Key(cfg Config) string {
	k := newCellKeyer()
	k.program(mustMarshal(c.Prog), cfg.Insns)
	return k.key(mustMarshal(c.Spec))
}

// A KeyedGrid is a grid resolved under one Config: its cells in cell order
// (program-major, arm-major, cache-minor) and each cell's store key,
// parallel to Cells. It is what the executor gathers from and what
// ResultSet.Rows reads back, so a run derives each key once; the sweep
// service derives it when compiling a job (the flight key covers every
// cell key) and hands it to the run.
type KeyedGrid struct {
	Grid  Grid
	Cells []Cell
	Keys  []string
}

// Keyed enumerates the grid's cells over cfg.Programs and derives their
// store keys (Cell.Key) under cfg.Insns. Each program's workload.Spec and
// each arm point's arch.Spec are marshaled once per call, not once per
// cell (see cellKeyer).
func (g Grid) Keyed(cfg Config) KeyedGrid {
	cells := g.Cells(cfg.Programs)
	points := g.cellsPerProgram()
	specs := make([][]byte, points) // every program has the same arm points
	k := newCellKeyer()
	keys := make([]string, len(cells))
	for i, c := range cells {
		j := i % points
		if j == 0 {
			k.program(mustMarshal(c.Prog), cfg.Insns)
		}
		if i < points {
			specs[j] = mustMarshal(c.Spec)
		}
		keys[i] = k.key(specs[j])
	}
	return KeyedGrid{Grid: g, Cells: cells, Keys: keys}
}

// Cells enumerates the grid's cells program-major (all of one program's
// cells, arm-major, then the next program's) without keying them. The
// order is load-bearing:
// renderers aggregate per (arm, cache) key by walking rows in this order,
// which reproduces the per-key program-order float accumulation of the
// pre-grid drivers bit for bit.
func (g Grid) Cells(programs []workload.Spec) []Cell {
	cells := make([]Cell, 0, len(programs)*g.cellsPerProgram())
	for _, p := range programs {
		for _, a := range g.Arms {
			if len(a.Caches) == 0 {
				cells = append(cells, Cell{Prog: p, Arm: a.Name, Spec: a.Spec})
				continue
			}
			for _, geo := range a.Caches {
				cells = append(cells, Cell{Prog: p, Arm: a.Name, Spec: a.Spec.WithGeometry(geo)})
			}
		}
	}
	return cells
}

// cellsPerProgram returns the number of cells each program contributes.
func (g Grid) cellsPerProgram() int {
	n := 0
	for _, a := range g.Arms {
		if len(a.Caches) == 0 {
			n++
		} else {
			n += len(a.Caches)
		}
	}
	return n
}
