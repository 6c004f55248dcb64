// Package store is the content-addressed analysis store behind LEQA's
// "parse once, estimate forever" path: analyses keyed by the SHA-256
// digest of the canonical gate stream (internal/qcbin), held in an
// in-memory single-flight LRU over an optional disk directory of images.
//
// An upload is read once: GetOrAnalyzeOutcome analyzes its stream in one
// pass and takes the digest from the analysis's node records
// (qcbin.DigestAnalysis), which are the stream's gates, so a stream that
// cannot be rewound is stored as readily as a file.
//
// The memory tier is an internal/lru cache, like the zone-model memo and
// the result memo, under that package's rules on failed computes,
// cancelled waiters and Purge: lookups of a digest being computed join
// that computation, so N concurrent uploads of the same circuit store one
// analysis. The disk tier persists every stored analysis as an atomic
// write-renamed image, survives process restarts, and is size-capped with
// oldest-first eviction. An image is the .qcb netlist of the analyzed
// gates (qcbin.EncodeAnalysis), named <digest>.qca. A disk hit rebuilds
// the analysis as an upload is analyzed, with analysis.AnalyzeStream and
// qcbin.DigestAnalysis, and checks that digest against the file name, so
// it returns exactly what a fresh analysis of the digest's circuit
// returns, and an image that fails to decode or to match its name is
// deleted and counts as a miss.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/lru"
	"repro/internal/qcbin"
)

// DefaultMemEntries bounds the memory tier when Options leaves it zero.
// Analyses are the expensive artifact here (tens of MB for the largest
// paper benchmarks), so the default is far smaller than zonemodel's.
const DefaultMemEntries = 64

// ErrNotFound reports a by-reference lookup whose digest is in neither
// tier.
var ErrNotFound = errors.New("store: analysis not found")

// Options configures a Store.
type Options struct {
	// MemEntries bounds the in-memory LRU; <=0 means DefaultMemEntries.
	MemEntries int
	// Dir, when non-empty, enables the disk tier: computed analyses are
	// persisted there as <digest>.qca, the .qcb netlist of their gates, and
	// rebuilt on later misses (and after restarts). The directory is
	// created if absent.
	Dir string
	// MaxDiskBytes caps the disk tier; <=0 means unbounded. When a write
	// pushes the directory past the cap, oldest images (by modification
	// time) are evicted — except the one just written.
	MaxDiskBytes int64
}

// Stats is a snapshot of a store's cumulative counters.
type Stats struct {
	// Hits counts lookups answered by the memory tier; DiskHits those that
	// fell through to a persisted image; Misses those whose digest neither
	// tier held: an upload's analysis was stored, or a by-reference lookup
	// had nothing to offer. An upload is analyzed before its lookup, so a
	// hit spares it only the insert and the image write.
	Hits, Misses, DiskHits uint64
	// Puts counts images written to the disk tier.
	Puts uint64
	// Evictions counts memory-tier LRU victims; DiskEvictions persisted
	// images removed to respect MaxDiskBytes.
	Evictions, DiskEvictions uint64
	// Entries/Capacity describe the memory tier; DiskEntries/DiskBytes the
	// disk tier (zero when disabled).
	Entries, Capacity int
	DiskEntries       int
	DiskBytes         int64
}

// String renders the counters on one line for reports.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d disk_hits=%d misses=%d puts=%d evictions=%d disk_evictions=%d entries=%d/%d disk=%d/%dB",
		s.Hits, s.DiskHits, s.Misses, s.Puts, s.Evictions, s.DiskEvictions,
		s.Entries, s.Capacity, s.DiskEntries, s.DiskBytes)
}

// Store is a concurrency-safe two-tier content-addressed analysis store.
type Store struct {
	mem *lru.Cache[string, *analysis.Analysis]

	// misses and diskHits count the memory tier's computes by how they
	// ended; the LRU counts the hits and evictions.
	misses, diskHits atomic.Uint64

	dir          string
	maxDiskBytes int64
	diskMu       sync.Mutex // serializes image writes and disk eviction
	mu           sync.Mutex // guards the disk-tier accounting below
	diskBytes    int64
	diskEntries  int
	puts         uint64
	diskEvicted  uint64
}

// New builds a store. With a disk directory the directory is created and
// scanned so restarted processes resume with correct occupancy accounting.
func New(opt Options) (*Store, error) {
	cap := opt.MemEntries
	if cap <= 0 {
		cap = DefaultMemEntries
	}
	s := &Store{
		mem:          lru.New[string, *analysis.Analysis](cap),
		dir:          opt.Dir,
		maxDiskBytes: opt.MaxDiskBytes,
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		entries, err := os.ReadDir(s.dir)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, de := range entries {
			if !isImage(de) {
				continue
			}
			if info, err := de.Info(); err == nil {
				s.diskBytes += info.Size()
				s.diskEntries++
			}
		}
	}
	return s, nil
}

// Dir reports the disk-tier directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

// Outcome classifies how one GetOrAnalyze lookup was satisfied — the
// store attribution request traces record on their analyze spans.
type Outcome uint8

const (
	// OutcomeMiss: neither tier held the digest; an upload's analysis was
	// stored.
	OutcomeMiss Outcome = iota
	// OutcomeHit: served by the memory tier (including lookups coalesced
	// onto another caller's in-flight lookup by the single-flight gate).
	OutcomeHit
	// OutcomeDiskHit: rebuilt from a persisted image.
	OutcomeDiskHit
)

// String renders the outcome as the span-detail token ("hit", "miss",
// "disk").
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeDiskHit:
		return "disk"
	default:
		return "miss"
	}
}

// GetOrAnalyze returns the analysis of src's netlist and its content
// digest (bare hex), storing it unless a tier already holds the digest.
// The stream is read once, from where it stands.
func (s *Store) GetOrAnalyze(src analysis.GateStream) (*analysis.Analysis, string, error) {
	a, digest, _, err := s.GetOrAnalyzeOutcome(context.Background(), src)
	return a, digest, err
}

// GetOrAnalyzeOutcome is GetOrAnalyze reporting how the lookup was
// satisfied (memory hit, disk image, new analysis) — the hook request
// tracing uses to attribute analyze time. It analyzes src in one pass,
// takes the digest from the analysis's node records
// (qcbin.DigestAnalysis), and then looks the digest up: a digest neither
// tier holds stores and persists this analysis; otherwise the stored one
// is returned. The pass polls ctx and stops with its error before any
// lookup, and a failed analysis is never stored. Like every lookup, it
// never inherits the failure of another caller's in-flight lookup it
// joined (see lookup).
func (s *Store) GetOrAnalyzeOutcome(ctx context.Context, src analysis.GateStream) (*analysis.Analysis, string, Outcome, error) {
	a, err := analysis.AnalyzeStreamContext(ctx, src, nil, false)
	if err != nil {
		return nil, "", OutcomeMiss, err
	}
	digest := qcbin.DigestAnalysis(a)
	stored, outcome, err := s.lookup(ctx, digest, func() (*analysis.Analysis, error) {
		s.saveImage(digest, a)
		return a, nil
	})
	return stored, digest, outcome, err
}

// Get returns the stored analysis for a bare hex digest, consulting both
// tiers; ErrNotFound when neither has it.
func (s *Store) Get(digest string) (*analysis.Analysis, error) {
	a, _, err := s.GetOutcome(digest)
	return a, err
}

// GetOutcome is Get reporting which tier answered — OutcomeHit from
// memory (including a coalesced single-flight wait), OutcomeDiskHit from
// a persisted image, OutcomeMiss with ErrNotFound. A lookup that joins
// another caller's failed lookup looks the digest up again rather than
// return that caller's error (see lookup).
func (s *Store) GetOutcome(digest string) (*analysis.Analysis, Outcome, error) {
	if err := validDigest(digest); err != nil {
		return nil, OutcomeMiss, err
	}
	return s.lookup(context.Background(), digest, func() (*analysis.Analysis, error) {
		return nil, ErrNotFound
	})
}

// lookup runs the memory tier with the caller's own compute: the disk
// tier, then miss on a disk miss. It reports how the lookup was satisfied;
// if its compute never runs, the digest was resident or another caller's
// in-flight lookup was joined, a memory-tier hit either way. A disk
// rebuild polls ctx; one that ctx stops fails with ctx's error and counts
// as neither a disk hit nor a miss. A joined lookup's failure may be the
// owner's alone (its context, or a by-reference lookup that came up
// empty), so a joiner whose owner failed looks up once more with its own
// compute, unless ctx is done.
func (s *Store) lookup(ctx context.Context, digest string, miss func() (*analysis.Analysis, error)) (*analysis.Analysis, Outcome, error) {
	outcome := OutcomeHit
	a, err := s.mem.Do(ctx, digest, func() (*analysis.Analysis, error) {
		outcome = OutcomeMiss
		a, err := s.loadImage(ctx, digest)
		if err != nil {
			return nil, err
		}
		if a != nil {
			outcome = OutcomeDiskHit
			s.diskHits.Add(1)
			return a, nil
		}
		s.misses.Add(1)
		return miss()
	})
	return a, outcome, err
}

// isImage reports whether a directory entry is a persisted image. A
// .tmp-*.qca file is not: saveImage writes one before renaming it into
// place, so a crash can leave it behind, and another process on the same
// directory may be writing it still. Neither scan counts or deletes one.
func isImage(de os.DirEntry) bool {
	return !de.IsDir() && strings.HasSuffix(de.Name(), ".qca") && !strings.HasPrefix(de.Name(), ".tmp-")
}

// imagePath maps a digest to its disk image.
func (s *Store) imagePath(digest string) string {
	return filepath.Join(s.dir, digest+".qca")
}

// loadImage tries the disk tier: the rebuilt analysis, or nil when there is
// no usable image. An image that fails to rebuild or to match its digest, a
// legacy image of another format among them, is deleted: the analysis will
// be recomputed and rewritten. A rebuild stopped by ctx returns ctx's error
// and leaves the image alone, since the image is not at fault.
func (s *Store) loadImage(ctx context.Context, digest string) (*analysis.Analysis, error) {
	if s.dir == "" {
		return nil, nil
	}
	path := s.imagePath(digest)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil
	}
	a, err := analyzeImage(ctx, f, digest)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		s.diskMu.Lock()
		if rmErr := os.Remove(path); rmErr == nil {
			s.mu.Lock()
			s.diskBytes -= info.Size()
			s.diskEntries--
			s.mu.Unlock()
		}
		s.diskMu.Unlock()
		return nil, nil
	}
	return a, nil
}

// analyzeImage rebuilds an analysis from its image, the way an upload is
// analyzed, and checks that its records have the digest it is stored
// under.
func analyzeImage(ctx context.Context, f *os.File, digest string) (*analysis.Analysis, error) {
	sc, err := qcbin.NewScanner(f, "")
	if err != nil {
		return nil, err
	}
	a, err := analysis.AnalyzeStreamContext(ctx, sc, nil, false)
	if err != nil {
		return nil, err
	}
	if got := qcbin.DigestAnalysis(a); got != digest {
		return nil, fmt.Errorf("store: image %s holds the netlist of digest %s", digest, got)
	}
	return a, nil
}

// saveImage persists a freshly computed analysis: atomic temp-write +
// rename, then oldest-first eviction to respect the size cap. Failures are
// silent by design — the disk tier is an accelerator, not a durability
// contract — but never corrupt accounting.
func (s *Store) saveImage(digest string, a *analysis.Analysis) {
	if s.dir == "" {
		return
	}
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	final := s.imagePath(digest)
	if _, err := os.Stat(final); err == nil {
		return // already persisted by an earlier process or racing store
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*.qca")
	if err != nil {
		return
	}
	if err := qcbin.EncodeAnalysis(tmp, a); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	info, statErr := tmp.Stat()
	if err := tmp.Close(); err != nil || statErr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.mu.Lock()
	s.diskBytes += info.Size()
	s.diskEntries++
	s.puts++
	over := s.maxDiskBytes > 0 && s.diskBytes > s.maxDiskBytes
	s.mu.Unlock()
	if over {
		s.evictDiskLocked(final)
	}
}

// evictDiskLocked removes oldest images until the tier fits the cap,
// sparing keep (the image just written). Caller holds diskMu.
func (s *Store) evictDiskLocked(keep string) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type img struct {
		path  string
		size  int64
		mtime int64
	}
	var imgs []img
	for _, de := range entries {
		if !isImage(de) {
			continue
		}
		p := filepath.Join(s.dir, de.Name())
		if p == keep {
			continue
		}
		if info, err := de.Info(); err == nil {
			imgs = append(imgs, img{path: p, size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	sort.Slice(imgs, func(i, j int) bool { return imgs[i].mtime < imgs[j].mtime })
	for _, im := range imgs {
		s.mu.Lock()
		over := s.diskBytes > s.maxDiskBytes
		s.mu.Unlock()
		if !over {
			break
		}
		if err := os.Remove(im.path); err != nil {
			continue
		}
		s.mu.Lock()
		s.diskBytes -= im.size
		s.diskEntries--
		s.diskEvicted++
		s.mu.Unlock()
	}
}

// Stats reports the cumulative counters of both tiers.
func (s *Store) Stats() Stats {
	mem := s.mem.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          mem.Hits,
		Misses:        s.misses.Load(),
		DiskHits:      s.diskHits.Load(),
		Puts:          s.puts,
		Evictions:     mem.Evictions,
		DiskEvictions: s.diskEvicted,
		Entries:       mem.Entries,
		Capacity:      mem.Capacity,
		DiskEntries:   s.diskEntries,
		DiskBytes:     s.diskBytes,
	}
}

// Purge empties the memory tier and zeroes every counter but the disk
// tier's occupancy; persisted images are untouched (use the filesystem to
// clear the disk tier).
func (s *Store) Purge() {
	s.mem.Purge()
	s.misses.Store(0)
	s.diskHits.Store(0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts, s.diskEvicted = 0, 0
}

func validDigest(digest string) error {
	if _, err := qcbin.ParseRef(qcbin.DigestPrefix + digest); err != nil {
		return fmt.Errorf("store: bad digest %q", digest)
	}
	return nil
}
