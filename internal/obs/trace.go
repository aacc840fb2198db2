package obs

// SolveTrace is the fixed-slot stage timer one solve (or one streaming
// window) carries through the serving path: where the request's wall time
// went, from admission queue to the per-level chain kernels. It is a plain
// value with fixed-size arrays — embedding it in a pooled per-solve
// workspace costs zero allocations, and copying it out to a caller is a
// struct assignment. All fields are nanoseconds unless noted.
//
// Attribution is exclusive within the preconditioner: ChebNS[i] counts level
// i's Chebyshev vector kernels and mat-vecs but NOT the recursive
// preconditioner applications it makes (those land in the deeper levels'
// slots), FwdNS/BackNS count level i's elimination replay and
// back-substitution, and BottomNS the direct bottom solves — so
// ΣCheb + ΣFwd + ΣBack + Bottom ≈ PrecondNS, and the per-stage series
// partition the apply time instead of double-counting the recursion.
//
// A block solve split into concurrent lane groups reports the groups'
// traces summed slot by slot (Add): its slots are then worker time, not
// wall time, and still partition as OuterNS ⊇ PrecondNS ⊇ stages.
type SolveTrace struct {
	// QueueNS is time spent waiting in the solve admission queue (filled by
	// the serving layer, not the solver).
	QueueNS int64
	// WorkspaceNS is the pooled-workspace acquire (and lazy growth) time.
	WorkspaceNS int64
	// OuterNS is the outer PCG driver's total wall time, INCLUDING the
	// preconditioner applications it makes; OuterNS − PrecondNS is the
	// driver's own mat-vec/dot/axpy time.
	OuterNS int64
	// PrecondNS is the total time inside whole-chain preconditioner
	// applications.
	PrecondNS int64
	// BottomNS is the total time in bottom-level direct solves.
	BottomNS int64
	// TotalNS is the end-to-end request time (filled by the serving layer;
	// for an HTTP request it runs from reading the body to the encoded
	// reply, DecodeNS and EncodeNS included).
	TotalNS int64
	// DecodeNS is reading and parsing the right-hand sides off the wire and
	// EncodeNS formatting the solutions for it (filled by the serving layer;
	// a stream window's EncodeNS also covers flushing its rows).
	DecodeNS int64
	EncodeNS int64
	// ChebNS, FwdNS and BackNS are per-chain-level totals (level 0 = top);
	// chains deeper than TraceLevels fold the excess into the last slot.
	ChebNS [TraceLevels]int64
	FwdNS  [TraceLevels]int64
	BackNS [TraceLevels]int64
	// Levels is the chain depth the solve ran against (may exceed
	// TraceLevels, in which case the arrays are folded).
	Levels int
}

// TraceLevels is the number of per-level slots; chains are depth ≤ 12 by
// construction (ChainParams.MaxLevels), so folding never triggers in
// practice.
const TraceLevels = 16

// LevelIndex clamps a chain level to a trace slot.
func LevelIndex(level int) int {
	if level >= TraceLevels {
		return TraceLevels - 1
	}
	return level
}

// Reset zeroes the trace in place (no allocation).
func (t *SolveTrace) Reset() { *t = SolveTrace{} }

// Add sums u's time slots into t slot by slot — how a block solve split
// into concurrent lane groups reports one trace, which is therefore worker
// time, not wall time. Levels keeps the deeper of the two.
func (t *SolveTrace) Add(u *SolveTrace) {
	t.QueueNS += u.QueueNS
	t.WorkspaceNS += u.WorkspaceNS
	t.OuterNS += u.OuterNS
	t.PrecondNS += u.PrecondNS
	t.BottomNS += u.BottomNS
	t.TotalNS += u.TotalNS
	t.DecodeNS += u.DecodeNS
	t.EncodeNS += u.EncodeNS
	for i := range t.ChebNS {
		t.ChebNS[i] += u.ChebNS[i]
		t.FwdNS[i] += u.FwdNS[i]
		t.BackNS[i] += u.BackNS[i]
	}
	t.Levels = max(t.Levels, u.Levels)
}

// Stage enumerates the serving path's timed stages.
type Stage int

const (
	StageQueue     Stage = iota // admission queue wait
	StageWorkspace              // pooled workspace acquire
	StagePCG                    // outer PCG driver, excluding preconditioner applications
	StagePrecond                // whole-chain preconditioner applications (inclusive)
	StageCheb                   // per-level Chebyshev sweeps, summed (exclusive of recursion)
	StageForward                // elimination forward replays, summed
	StageBack                   // elimination back-substitutions, summed
	StageBottom                 // bottom direct solves
	StageDecode                 // reading and parsing the right-hand sides
	StageEncode                 // formatting the solutions
	StageTotal                  // end-to-end request time
	NumStages
)

var stageNames = [NumStages]string{
	"queue", "workspace", "pcg", "precond", "cheb", "forward", "back",
	"bottom", "decode", "encode", "total",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists every stage in exposition order.
func Stages() [NumStages]Stage {
	var out [NumStages]Stage
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageNS aggregates the trace's time for one stage (see the Stage
// constants for semantics). StagePCG subtracts the preconditioner time from
// the outer driver so the top-level stages (decode, queue, workspace, pcg,
// precond, encode) partition TotalNS up to timer skew and the cache lookup.
func (t *SolveTrace) StageNS(s Stage) int64 {
	switch s {
	case StageQueue:
		return t.QueueNS
	case StageWorkspace:
		return t.WorkspaceNS
	case StagePCG:
		if d := t.OuterNS - t.PrecondNS; d > 0 {
			return d
		}
		return 0
	case StagePrecond:
		return t.PrecondNS
	case StageCheb:
		return sumLevels(&t.ChebNS)
	case StageForward:
		return sumLevels(&t.FwdNS)
	case StageBack:
		return sumLevels(&t.BackNS)
	case StageBottom:
		return t.BottomNS
	case StageDecode:
		return t.DecodeNS
	case StageEncode:
		return t.EncodeNS
	case StageTotal:
		return t.TotalNS
	}
	return 0
}

func sumLevels(a *[TraceLevels]int64) int64 {
	var s int64
	for _, v := range a {
		s += v
	}
	return s
}
