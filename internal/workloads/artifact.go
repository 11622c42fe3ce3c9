package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"mbusim/internal/asm"
	"mbusim/internal/sim"
	"mbusim/internal/wire"
)

// Checkpoint artifacts: the expensive part of bringing up a workload is not
// compiling it (milliseconds) but deriving its golden reference — a full
// fault-free run of up to 500M simulated cycles that records the checkpoint
// set on the way. In a distributed campaign every worker used to pay that
// tax per process. An Artifact captures the derived state (golden run +
// checkpoint snapshots) in a versioned binary encoding, keyed by a content
// address over everything the state is a pure function of: the wire-format
// version, the workload name, the compiled image, and the checkpoint
// count. Any party holding the same source and configuration computes the
// same key, so a worker can ask the coordinator for "the artifact I would
// have derived" and install it instead — and a key mismatch (different
// simulator build, source, or K) degrades safely to local derivation
// rather than ever installing the wrong state.

// ArtifactFormat versions the artifact container layout (magic, header,
// payload field order, hash trailer) and the placement of its checkpoints,
// so that one key names one byte string. Format 2 holds the K to 2K-1
// checkpoints the golden run records (format 1 held K at G·i/K). The
// snapshot payload is versioned separately by sim.SnapshotFormat; both are
// folded into the key.
const ArtifactFormat = 2

// artifactMagic opens every encoded artifact.
var artifactMagic = [4]byte{'M', 'B', 'U', 'A'}

// Artifact is a workload's derived state in portable form.
type Artifact struct {
	Workload  string
	ImageHash [32]byte // HashImage of the compiled program
	K         int      // CheckpointCount the set was built with
	Golden    Golden
	Cycles    []uint64        // checkpoint cycles, ascending, Cycles[0] == 0
	Snaps     []*sim.Snapshot // checkpoint snapshots, parallel to Cycles
}

// HashImage returns a deterministic digest of a compiled program's
// execution-relevant content: text, data, load addresses and entry point.
// Symbols are omitted — they carry no execution semantics.
func HashImage(p *asm.Program) [32]byte {
	h := sha256.New()
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], p.TextBase)
	binary.LittleEndian.PutUint32(hdr[4:], p.DataBase)
	binary.LittleEndian.PutUint32(hdr[8:], p.Entry)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(p.Text)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(p.Data)))
	h.Write(hdr[:])
	h.Write(p.Text)
	h.Write(p.Data)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// artifactKey computes the content address for a (name, image, K) triple.
func artifactKey(name string, imageHash [32]byte, k int) string {
	h := sha256.New()
	var ver [16]byte
	binary.LittleEndian.PutUint64(ver[0:], ArtifactFormat)
	binary.LittleEndian.PutUint64(ver[8:], sim.SnapshotFormat)
	h.Write(ver[:])
	h.Write([]byte(name))
	h.Write(imageHash[:])
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], uint64(k))
	h.Write(kb[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Key returns the artifact's content address.
func (a *Artifact) Key() string {
	return artifactKey(a.Workload, a.ImageHash, a.K)
}

// ArtifactKey returns the content address of the artifact this process
// would derive for the workload under its current configuration: its
// compiled image, the current CheckpointCount, and this build's snapshot
// format. It compiles the workload (cheap) but derives nothing.
func (w *Workload) ArtifactKey() (string, error) {
	prog, err := w.Program()
	if err != nil {
		return "", err
	}
	return artifactKey(w.Name, HashImage(prog), checkpointCount()), nil
}

// ExportArtifact packages the workload's derived state, deriving it first
// if this process has not already (one golden run).
func ExportArtifact(w *Workload) (*Artifact, error) {
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	cycles, snaps, err := w.GoldenCheckpoints()
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Workload:  w.Name,
		ImageHash: HashImage(prog),
		K:         checkpointCount(),
		Golden:    *w.golden,
		Cycles:    cycles,
		Snaps:     snaps,
	}, nil
}

// Encode serializes the artifact in the sealed wire envelope (magic,
// format version, payload, sha256 trailer). The trailer is what cached
// and fetched copies are verified against, so corruption anywhere in the
// bytes is caught before any field is trusted.
func (a *Artifact) Encode() []byte {
	return wire.Seal(artifactMagic, ArtifactFormat, wire.Encode(a.wire))
}

// maxArtifactCheckpoints bounds the checkpoint count a decoded artifact may
// claim, far above any sane configuration.
const maxArtifactCheckpoints = 1 << 12

// DecodeArtifact parses and verifies an encoded artifact. It rejects bad
// magic, an unknown format version, a content hash that does not match the
// bytes, and any structural inconsistency — a caller that gets a non-nil
// Artifact back holds exactly what Encode was given.
func DecodeArtifact(data []byte) (*Artifact, error) {
	payload, err := wire.Open(data, artifactMagic, ArtifactFormat)
	if err != nil {
		return nil, fmt.Errorf("workloads: artifact: %w", err)
	}
	a := &Artifact{}
	if err := wire.Decode(payload, a.wire); err != nil {
		return nil, fmt.Errorf("workloads: artifact: %w", err)
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// wire runs the artifact payload's fields through c: identity, golden
// run, the checkpoint cycles, then one snapshot per cycle.
func (a *Artifact) wire(c *wire.Codec) {
	c.String(&a.Workload)
	c.Hash(&a.ImageHash)
	c.Int(&a.K)
	c.U64(&a.Golden.Cycles)
	c.U64(&a.Golden.Committed)
	c.Blob(&a.Golden.Stdout)
	c.U32(&a.Golden.ExitCode)
	wire.Slice(c, &a.Cycles, maxArtifactCheckpoints, (*wire.Codec).U64)
	if c.Decoding() {
		a.Snaps = make([]*sim.Snapshot, len(a.Cycles))
	}
	// Stop at a decode error: each snapshot allocates its fixed-size parts
	// before reading them.
	for i := 0; i < len(a.Snaps) && c.Err() == nil; i++ {
		if c.Decoding() {
			a.Snaps[i] = new(sim.Snapshot)
		}
		a.Snaps[i].Wire(c)
	}
}

// validate checks the artifact's internal consistency.
func (a *Artifact) validate() error {
	if a.Workload == "" {
		return fmt.Errorf("workloads: artifact has no workload name")
	}
	if len(a.Cycles) == 0 || len(a.Cycles) != len(a.Snaps) {
		return fmt.Errorf("workloads: artifact has %d cycles for %d snapshots",
			len(a.Cycles), len(a.Snaps))
	}
	if a.Cycles[0] != 0 {
		return fmt.Errorf("workloads: artifact first checkpoint at cycle %d, want 0", a.Cycles[0])
	}
	for i := 1; i < len(a.Cycles); i++ {
		if a.Cycles[i] <= a.Cycles[i-1] {
			return fmt.Errorf("workloads: artifact checkpoint cycles not ascending at %d", i)
		}
	}
	if last := a.Cycles[len(a.Cycles)-1]; last >= a.Golden.Cycles {
		return fmt.Errorf("workloads: artifact checkpoint at cycle %d beyond golden run (%d cycles)",
			last, a.Golden.Cycles)
	}
	return nil
}

// InstallArtifact seeds the workload's derived state from a verified
// artifact, so later Reference, GoldenCheckpoints and Restorer calls find it
// already built and no golden run happens in this process. It compiles the
// workload locally (cheap) and refuses the artifact unless the image hash,
// checkpoint count, and machine configuration all match what this process
// would have derived itself — on any mismatch the workload is left
// untouched and the caller falls back to local derivation. Installing into
// a workload whose state was already derived (or installed) is an error if
// the golden runs disagree and a no-op otherwise.
func InstallArtifact(w *Workload, a *Artifact) error {
	if a.Workload != w.Name {
		return fmt.Errorf("workloads: artifact is for %q, not %q", a.Workload, w.Name)
	}
	prog, err := w.Program()
	if err != nil {
		return err
	}
	if HashImage(prog) != a.ImageHash {
		return fmt.Errorf("workloads: artifact image hash does not match compiled %s", w.Name)
	}
	if k := checkpointCount(); a.K != k {
		return fmt.Errorf("workloads: artifact built with %d checkpoints, this process wants %d", a.K, k)
	}
	// The snapshots carry no predecoded text (it is derived from the
	// image); bind the locally compiled program into each before they are
	// ever restored. A freshly exported in-process artifact shares live
	// snapshots that are already bound — binding again is a harmless
	// re-check. Reject snapshots taken under a different machine
	// configuration: Restorer rebuilds machines from snap.Cfg, so a wrong
	// config would silently change the simulated hardware.
	m, err := w.NewMachine()
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	for i, s := range a.Snaps {
		if s.Cfg != cfg {
			return fmt.Errorf("workloads: artifact checkpoint %d has a different machine configuration", i)
		}
		if err := s.BindProgram(m); err != nil {
			return fmt.Errorf("workloads: artifact checkpoint %d: %w", i, err)
		}
	}

	installed := false
	w.goldenOnce.Do(func() {
		g := a.Golden
		w.golden, w.ckptCycles, w.ckptSnaps = &g, a.Cycles, a.Snaps
		installed = true
	})
	if !installed {
		if w.goldenErr != nil {
			return fmt.Errorf("workloads: %s golden already failed: %w", w.Name, w.goldenErr)
		}
		if w.golden.Cycles != a.Golden.Cycles || w.golden.ExitCode != a.Golden.ExitCode ||
			!bytes.Equal(w.golden.Stdout, a.Golden.Stdout) {
			return fmt.Errorf("workloads: artifact golden disagrees with the one already derived for %s", w.Name)
		}
	}
	return nil
}
