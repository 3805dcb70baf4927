package flight

// Defaults for Config. DefaultEvery matches the ISCA'09 evaluation's
// measurement grain: coarse enough that the boundary check is noise in
// the hot loop, fine enough that phase structure survives.
const (
	DefaultEvery = 64 * 1024
	DefaultCap   = 256
)

// Config controls a Recorder. The zero value is usable: every field
// has a default.
type Config struct {
	// Every is the epoch length in measured references. 0 means
	// DefaultEvery.
	Every int
	// Cap bounds the number of stored epochs. When exceeded,
	// adjacent epochs merge 2→1. 0 means DefaultCap; minimum 2.
	Cap int
	// OnEpoch, if non-nil, observes every base epoch as it closes,
	// before any downsampling. Called synchronously from the engine
	// goroutine.
	OnEpoch func(Epoch)
}

// Transitions is a flat snapshot of OS-page classification activity
// (internal/ospage counters, flattened for deterministic encoding).
//
//rnuca:wire
type Transitions struct {
	FirstTouches    uint64 `json:"first_touches,omitempty"`
	PrivateToShared uint64 `json:"private_to_shared,omitempty"`
	Migrations      uint64 `json:"migrations,omitempty"`
	InstrToShared   uint64 `json:"instr_to_shared,omitempty"`
	PrivateToInstr  uint64 `json:"private_to_instr,omitempty"`
	TLBShootdowns   uint64 `json:"tlb_shootdowns,omitempty"`
}

func (t Transitions) sub(prev Transitions) Transitions {
	return Transitions{
		FirstTouches:    t.FirstTouches - prev.FirstTouches,
		PrivateToShared: t.PrivateToShared - prev.PrivateToShared,
		Migrations:      t.Migrations - prev.Migrations,
		InstrToShared:   t.InstrToShared - prev.InstrToShared,
		PrivateToInstr:  t.PrivateToInstr - prev.PrivateToInstr,
		TLBShootdowns:   t.TLBShootdowns - prev.TLBShootdowns,
	}
}

func (t Transitions) add(o Transitions) Transitions {
	return Transitions{
		FirstTouches:    t.FirstTouches + o.FirstTouches,
		PrivateToShared: t.PrivateToShared + o.PrivateToShared,
		Migrations:      t.Migrations + o.Migrations,
		InstrToShared:   t.InstrToShared + o.InstrToShared,
		PrivateToInstr:  t.PrivateToInstr + o.PrivateToInstr,
		TLBShootdowns:   t.TLBShootdowns + o.TLBShootdowns,
	}
}

// Total is the number of reclassification events (first touches and
// shootdown side effects excluded) — the "churn" a placement policy
// pays for.
func (t Transitions) Total() uint64 {
	return t.PrivateToShared + t.Migrations + t.InstrToShared + t.PrivateToInstr
}

// NumClasses is the number of access-class lanes in a Sample/Epoch.
// It mirrors cache.Class (data/instruction/private/shared); the
// recorder stores them positionally to stay dependency-free.
const NumClasses = 4

// Sample is a cumulative counter snapshot the engine hands the
// recorder at an epoch boundary. All counters are monotone over a run;
// the recorder delta-encodes consecutive samples. Slices are owned by
// the recorder once passed — the engine must hand over fresh copies.
type Sample struct {
	Refs          uint64
	CoreCycles    []float64
	CoreInstrs    []uint64
	ClassAccesses [NumClasses]uint64
	ClassMisses   [NumClasses]uint64
	Transitions   Transitions
	BankAccesses  []uint64
	LinkFlits     []uint64
}

// Epoch is one stored timeline entry: the delta between two cumulative
// samples, possibly covering several base epochs after downsampling.
//
//rnuca:wire
type Epoch struct {
	// Index is the ordinal of the first base epoch this entry covers.
	Index int `json:"index"`
	// Epochs is how many base epochs were merged into this entry
	// (1 before any downsampling).
	Epochs int `json:"epochs"`
	// StartRef/EndRef delimit the measured-reference range [start,end).
	StartRef uint64 `json:"start_ref"`
	EndRef   uint64 `json:"end_ref"`

	CoreCycles    []float64          `json:"core_cycles"`
	CoreInstrs    []uint64           `json:"core_instrs"`
	ClassAccesses [NumClasses]uint64 `json:"class_accesses"`
	ClassMisses   [NumClasses]uint64 `json:"class_misses"`
	Transitions   Transitions        `json:"transitions"`
	BankAccesses  []uint64           `json:"bank_accesses"`
	LinkFlits     []uint64           `json:"link_flits,omitempty"`
}

// CPI is the epoch's cycles-per-instruction for one core, or 0 when
// the core retired nothing this epoch.
func (e Epoch) CPI(core int) float64 {
	if core >= len(e.CoreCycles) || core >= len(e.CoreInstrs) || e.CoreInstrs[core] == 0 {
		return 0
	}
	return e.CoreCycles[core] / float64(e.CoreInstrs[core])
}

// Refs is the number of measured references the epoch covers.
func (e Epoch) Refs() uint64 { return e.EndRef - e.StartRef }

// Timeline is the recorder's final product: the (possibly downsampled)
// epoch sequence plus the labels needed to read it.
//
//rnuca:wire
type Timeline struct {
	// EpochRefs is the base epoch length in measured references.
	EpochRefs int `json:"epoch_refs"`
	// BaseEpochs is how many base epochs were observed in total.
	BaseEpochs int `json:"base_epochs"`
	// Scale is the current downsampling factor: each stored epoch
	// covers up to Scale base epochs.
	Scale int `json:"scale"`
	Cores int `json:"cores"`
	Banks int `json:"banks"`
	// Links labels the LinkFlits lanes ("src>dst" tile IDs), in
	// first-traversal order. Epochs recorded before a link's first
	// traversal have shorter LinkFlits slices; absent lanes are zero.
	Links  []string `json:"links,omitempty"`
	Epochs []Epoch  `json:"epochs"`
}

// Recorder accumulates delta-encoded epochs with bounded memory.
// A Recorder is driven by exactly one engine goroutine; Timeline is
// read after the run completes.
type Recorder struct {
	every   int
	cap     int
	onEpoch func(Epoch)

	prev        Sample
	epochs      []Epoch
	scale       int
	baseEpochs  int
	downsamples int
	links       []string
}

// NewRecorder builds a Recorder from cfg, applying defaults.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	if cfg.Cap < 2 {
		cfg.Cap = 2
	}
	return &Recorder{every: cfg.Every, cap: cfg.Cap, onEpoch: cfg.OnEpoch, scale: 1}
}

// Every is the configured base epoch length in measured references.
func (r *Recorder) Every() int { return r.every }

// Baseline seeds the recorder's previous sample without emitting an
// epoch, so activity before measurement (warmup) is excluded from the
// first epoch's delta. It is a no-op once any epoch has been observed.
func (r *Recorder) Baseline(s Sample) {
	if r.baseEpochs == 0 {
		r.prev = s
	}
}

// Observe closes a base epoch at cumulative snapshot s. A sample that
// advances no references (e.g. the end-of-run flush landing exactly on
// a boundary) is ignored, so callers may flush unconditionally.
//
//rnuca:hotpath
func (r *Recorder) Observe(s Sample) {
	if s.Refs == r.prev.Refs {
		return
	}
	e := Epoch{
		Index:        r.baseEpochs,
		Epochs:       1,
		StartRef:     r.prev.Refs,
		EndRef:       s.Refs,
		CoreCycles:   subF(s.CoreCycles, r.prev.CoreCycles),
		CoreInstrs:   subU(s.CoreInstrs, r.prev.CoreInstrs),
		Transitions:  s.Transitions.sub(r.prev.Transitions),
		BankAccesses: subU(s.BankAccesses, r.prev.BankAccesses),
		LinkFlits:    subU(s.LinkFlits, r.prev.LinkFlits),
	}
	for c := 0; c < NumClasses; c++ {
		e.ClassAccesses[c] = s.ClassAccesses[c] - r.prev.ClassAccesses[c]
		e.ClassMisses[c] = s.ClassMisses[c] - r.prev.ClassMisses[c]
	}
	r.baseEpochs++
	r.prev = s
	if r.onEpoch != nil {
		r.onEpoch(e)
	}
	r.push(e)
}

func (r *Recorder) push(e Epoch) {
	// While the trailing entry holds fewer base epochs than the
	// current scale, keep folding new epochs into it so entries stay
	// (close to) uniform after a downsample.
	if n := len(r.epochs); n > 0 && r.epochs[n-1].Epochs < r.scale {
		r.epochs[n-1] = merge(r.epochs[n-1], e)
		return
	}
	r.epochs = append(r.epochs, e)
	if len(r.epochs) > r.cap {
		r.downsample()
	}
}

// downsample merges adjacent epochs 2→1 and doubles the scale. Pairs
// that would exceed the new scale (possible after repeated rounds over
// a ragged tail) are left unmerged; the ring still at least halves
// minus one, so it stays under cap.
func (r *Recorder) downsample() {
	r.scale *= 2
	r.downsamples++
	out := r.epochs[:0]
	for i := 0; i < len(r.epochs); {
		if i+1 < len(r.epochs) && r.epochs[i].Epochs+r.epochs[i+1].Epochs <= r.scale {
			out = append(out, merge(r.epochs[i], r.epochs[i+1]))
			i += 2
		} else {
			out = append(out, r.epochs[i])
			i++
		}
	}
	r.epochs = out
}

// merge combines two adjacent epochs into one covering both ranges.
func merge(a, b Epoch) Epoch {
	m := Epoch{
		Index:        a.Index,
		Epochs:       a.Epochs + b.Epochs,
		StartRef:     a.StartRef,
		EndRef:       b.EndRef,
		CoreCycles:   addF(a.CoreCycles, b.CoreCycles),
		CoreInstrs:   addU(a.CoreInstrs, b.CoreInstrs),
		Transitions:  a.Transitions.add(b.Transitions),
		BankAccesses: addU(a.BankAccesses, b.BankAccesses),
		LinkFlits:    addU(a.LinkFlits, b.LinkFlits),
	}
	for c := 0; c < NumClasses; c++ {
		m.ClassAccesses[c] = a.ClassAccesses[c] + b.ClassAccesses[c]
		m.ClassMisses[c] = a.ClassMisses[c] + b.ClassMisses[c]
	}
	return m
}

// SetLinks records the link labels for the LinkFlits lanes, in lane
// order. Typically called once, after the run, when the network's
// first-traversal order is final.
func (r *Recorder) SetLinks(links []string) {
	r.links = append([]string(nil), links...)
}

// Timeline snapshots the recorded epochs. The returned value shares no
// mutable state with the Recorder.
func (r *Recorder) Timeline() *Timeline {
	t := &Timeline{
		EpochRefs:  r.every,
		BaseEpochs: r.baseEpochs,
		Scale:      r.scale,
		Cores:      len(r.prev.CoreCycles),
		Banks:      len(r.prev.BankAccesses),
		Links:      append([]string(nil), r.links...),
		Epochs:     make([]Epoch, len(r.epochs)),
	}
	for i, e := range r.epochs {
		e.CoreCycles = append([]float64(nil), e.CoreCycles...)
		e.CoreInstrs = append([]uint64(nil), e.CoreInstrs...)
		e.BankAccesses = append([]uint64(nil), e.BankAccesses...)
		e.LinkFlits = append([]uint64(nil), e.LinkFlits...)
		t.Epochs[i] = e
	}
	return t
}

// subU returns cur-prev element-wise; prev may be shorter (lanes
// appear over time), in which case missing entries are zero.
func subU(cur, prev []uint64) []uint64 {
	out := make([]uint64, len(cur))
	for i, v := range cur {
		if i < len(prev) {
			v -= prev[i]
		}
		out[i] = v
	}
	return out
}

func subF(cur, prev []float64) []float64 {
	out := make([]float64, len(cur))
	for i, v := range cur {
		if i < len(prev) {
			v -= prev[i]
		}
		out[i] = v
	}
	return out
}

// addU sums element-wise, extending to the longer slice.
func addU(a, b []uint64) []uint64 {
	if len(b) > len(a) {
		a, b = b, a
	}
	out := make([]uint64, len(a))
	copy(out, a)
	for i, v := range b {
		out[i] += v
	}
	return out
}

func addF(a, b []float64) []float64 {
	if len(b) > len(a) {
		a, b = b, a
	}
	out := make([]float64, len(a))
	copy(out, a)
	for i, v := range b {
		out[i] += v
	}
	return out
}
