// Package store is the content-addressed analysis store behind LEQA's
// "parse once, estimate forever" path: analyses keyed by the SHA-256
// digest of the canonical gate stream (internal/qcbin), held in an
// in-memory single-flight LRU over an optional disk directory of .qca
// images.
//
// The memory tier follows zonemodel.Cache's discipline exactly — lookups
// of a digest being computed block on that computation, so N concurrent
// estimates of the same circuit analyze it once. The disk tier persists
// every computed analysis as an atomic write-renamed image, survives
// process restarts, and is size-capped with oldest-first eviction. A store
// hit returns an Analysis that is estimate-for-estimate identical to a
// fresh one (same CSR contents, same metadata), because the image encodes
// the complete AnalyzeStream product.
package store

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
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
	// persisted there as <digest>.qca and reloaded on later misses (and
	// after restarts). The directory is created if absent.
	Dir string
	// MaxDiskBytes caps the disk tier; <=0 means unbounded. When a write
	// pushes the directory past the cap, oldest images (by modification
	// time) are evicted — except the one just written.
	MaxDiskBytes int64
}

// Stats is a snapshot of a store's cumulative counters.
type Stats struct {
	// Hits counts lookups answered by the memory tier; DiskHits those that
	// fell through to a persisted image; Misses those that required a full
	// analysis (or, for by-reference lookups, had nothing to offer).
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
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *entry
	items    map[string]*list.Element

	hits, misses, diskHits       uint64
	puts, evictions, diskEvicted uint64

	dir          string
	maxDiskBytes int64
	diskMu       sync.Mutex // serializes image writes and disk eviction
	diskBytes    int64
	diskEntries  int
}

type entry struct {
	s       *Store
	digest  string
	once    sync.Once
	compute func() (*analysis.Analysis, error)
	a       *analysis.Analysis
	err     error
}

// New builds a store. With a disk directory the directory is created and
// scanned so restarted processes resume with correct occupancy accounting.
func New(opt Options) (*Store, error) {
	cap := opt.MemEntries
	if cap <= 0 {
		cap = DefaultMemEntries
	}
	s := &Store{
		capacity:     cap,
		ll:           list.New(),
		items:        make(map[string]*list.Element, cap),
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
			if de.IsDir() || !strings.HasSuffix(de.Name(), ".qca") {
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
	// OutcomeMiss: neither tier had the digest; a full analysis ran.
	OutcomeMiss Outcome = iota
	// OutcomeHit: served by the memory tier (including lookups coalesced
	// onto another caller's in-flight analysis by the single-flight gate).
	OutcomeHit
	// OutcomeDiskHit: decoded from a persisted .qca image.
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
// digest (bare hex), analyzing at most once per digest across all
// concurrent callers. The stream is consumed (one digest pass, plus the
// analysis pass on a full miss).
func (s *Store) GetOrAnalyze(src analysis.GateStream) (*analysis.Analysis, string, error) {
	a, digest, _, err := s.GetOrAnalyzeOutcome(context.Background(), src)
	return a, digest, err
}

// GetOrAnalyzeOutcome is GetOrAnalyze reporting how the lookup was
// satisfied (memory hit, disk image, full analysis) — the hook request
// tracing uses to attribute analyze time. Its digest pass and its analysis
// pass poll ctx and stop with its error; a failed analysis is never
// stored. Like every lookup, it never inherits the failure of another
// caller's in-flight analysis it joined (see lookupOwn).
func (s *Store) GetOrAnalyzeOutcome(ctx context.Context, src analysis.GateStream) (*analysis.Analysis, string, Outcome, error) {
	digest, err := qcbin.DigestContext(ctx, src)
	if err != nil {
		return nil, "", OutcomeMiss, err
	}
	a, outcome, err := s.lookupOwn(ctx, digest, func() (*analysis.Analysis, error) {
		if err := src.Rewind(); err != nil {
			return nil, err
		}
		a, err := analysis.AnalyzeStreamContext(ctx, src, nil, false)
		if err != nil {
			return nil, err
		}
		s.saveImage(digest, a)
		return a, nil
	})
	return a, digest, outcome, err
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
// another caller's failed analysis looks the digest up again rather than
// return that caller's error (see lookupOwn).
func (s *Store) GetOutcome(digest string) (*analysis.Analysis, Outcome, error) {
	if err := validDigest(digest); err != nil {
		return nil, OutcomeMiss, err
	}
	return s.lookupOwn(context.Background(), digest, func() (*analysis.Analysis, error) {
		return nil, ErrNotFound
	})
}

// lookupOwn is lookup with the caller's own compute: the disk tier, then
// miss on a disk miss. It reports how the lookup was satisfied; if its
// compute never runs, the digest was resident or another caller's
// in-flight lookup was joined, a memory-tier hit either way. A joined
// lookup that failed has unpublished itself, and its failure may be the
// owner's alone: its context, or a by-reference lookup that came up empty.
// So a caller whose own compute did not run looks up once more with it,
// unless ctx is done, rather than inherit the error.
func (s *Store) lookupOwn(ctx context.Context, digest string, miss func() (*analysis.Analysis, error)) (*analysis.Analysis, Outcome, error) {
	// compute writes outcome under its entry's once, so the write happens
	// before this caller's lookup returns, whichever goroutine ran it.
	outcome := OutcomeHit
	compute := func() (*analysis.Analysis, error) {
		if a, ok := s.loadImage(digest); ok {
			outcome = OutcomeDiskHit
			s.count(&s.diskHits)
			return a, nil
		}
		outcome = OutcomeMiss
		s.count(&s.misses)
		return miss()
	}
	a, err := s.lookup(digest, compute)
	if err != nil && outcome == OutcomeHit {
		if err = ctx.Err(); err == nil {
			a, err = s.lookup(digest, compute)
		}
	}
	return a, outcome, err
}

// count bumps one cumulative counter under the store lock.
func (s *Store) count(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// Contains reports whether digest is resident in either tier, without
// loading anything.
func (s *Store) Contains(digest string) bool {
	if validDigest(digest) != nil {
		return false
	}
	s.mu.Lock()
	_, ok := s.items[digest]
	s.mu.Unlock()
	if ok {
		return true
	}
	if s.dir == "" {
		return false
	}
	_, err := os.Stat(s.imagePath(digest))
	return err == nil
}

// lookup is the single-flight LRU core: a resident digest is shared, and a
// new one is computed exactly once by the first arriver (see entry.run for
// a failed compute).
func (s *Store) lookup(digest string, compute func() (*analysis.Analysis, error)) (*analysis.Analysis, error) {
	s.mu.Lock()
	if el, ok := s.items[digest]; ok {
		s.hits++
		s.ll.MoveToFront(el)
		e := el.Value.(*entry)
		s.mu.Unlock()
		// Both paths run the entry's own compute through its once, so a hit
		// on an in-flight entry blocks until the first arriver finishes.
		e.once.Do(e.run)
		return e.a, e.err
	}
	e := &entry{s: s, digest: digest, compute: compute}
	s.items[digest] = s.ll.PushFront(e)
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).digest)
		s.evictions++
	}
	s.mu.Unlock()
	// Compute outside the lock; an entry evicted mid-compute stays valid
	// for everyone already holding it, it just stops being findable.
	e.once.Do(e.run)
	return e.a, e.err
}

// run computes the entry under its once. A failed compute unpublishes the
// entry before the once completes, so every caller that sees the failure
// finds the digest gone, and its next lookup computes afresh instead of
// meeting the memoized error (by-reference misses and transient failures
// must not poison the digest).
func (e *entry) run() {
	e.a, e.err = e.compute()
	if e.err == nil {
		return
	}
	s := e.s
	s.mu.Lock()
	if el, ok := s.items[e.digest]; ok && el.Value.(*entry) == e {
		s.ll.Remove(el)
		delete(s.items, e.digest)
	}
	s.mu.Unlock()
}

// imagePath maps a digest to its disk image.
func (s *Store) imagePath(digest string) string {
	return filepath.Join(s.dir, digest+".qca")
}

// loadImage tries the disk tier. A corrupt image is deleted and treated as
// a miss — the analysis will be recomputed and rewritten.
func (s *Store) loadImage(digest string) (*analysis.Analysis, bool) {
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.imagePath(digest))
	if err != nil {
		return nil, false
	}
	a, err := qcbin.DecodeImage(data, digest[:12])
	if err != nil {
		s.diskMu.Lock()
		if rmErr := os.Remove(s.imagePath(digest)); rmErr == nil {
			s.mu.Lock()
			s.diskBytes -= int64(len(data))
			s.diskEntries--
			s.mu.Unlock()
		}
		s.diskMu.Unlock()
		return nil, false
	}
	return a, true
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
	if err := qcbin.EncodeImage(tmp, a); err != nil {
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
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".qca") || strings.HasPrefix(de.Name(), ".tmp-") {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.hits,
		Misses:        s.misses,
		DiskHits:      s.diskHits,
		Puts:          s.puts,
		Evictions:     s.evictions,
		DiskEvictions: s.diskEvicted,
		Entries:       s.ll.Len(),
		Capacity:      s.capacity,
		DiskEntries:   s.diskEntries,
		DiskBytes:     s.diskBytes,
	}
}

// Purge empties the memory tier and resets its statistics; persisted
// images are untouched (use the filesystem to clear the disk tier).
func (s *Store) Purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ll.Init()
	clear(s.items)
	s.hits, s.misses, s.diskHits = 0, 0, 0
	s.puts, s.evictions, s.diskEvicted = 0, 0, 0
}

func validDigest(digest string) error {
	if _, err := qcbin.ParseRef(qcbin.DigestPrefix + digest); err != nil {
		return fmt.Errorf("store: bad digest %q", digest)
	}
	return nil
}
