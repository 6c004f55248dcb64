package leqa

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/analysis"
)

// EnvShardThreshold is the environment variable read by ApplyEnvTuning.
// Both cmd/leqa and cmd/leqad apply it at startup (the -shard-threshold
// flag overrides), so deployments can tune the parallel dispatch without
// rebuilding: LEQA_SHARD_THRESHOLD is the gate count at or above which the
// fused analysis build shards across cores (analysis.ShardThreshold). Zero
// or negative disables sharding entirely; results are bitwise identical at
// every setting. The critical-path sweep is serial and has no knob.
const EnvShardThreshold = "LEQA_SHARD_THRESHOLD"

// Environment variables read by StoreOptionsFromEnv. They configure the
// content-addressed analysis store cmd/leqa and cmd/leqad attach (flags of
// the same meaning override):
//
//   - LEQA_STORE_DIR — disk-tier directory for persisted .qca analysis
//     images; empty keeps the store memory-only.
//   - LEQA_STORE_MEM — memory-tier LRU entry cap (0 selects the default).
//   - LEQA_STORE_DISK_BYTES — disk-tier size cap in bytes (0 = unbounded).
const (
	EnvStoreDir       = "LEQA_STORE_DIR"
	EnvStoreMem       = "LEQA_STORE_MEM"
	EnvStoreDiskBytes = "LEQA_STORE_DISK_BYTES"
)

// EnvResultMemoEntries configures the (digest, params) result memo's LRU
// entry cap for cmd/leqad (the -result-memo flag overrides): unset or 0
// selects DefaultResultMemoEntries, a negative value disables the memo
// entirely. The memo only ever serves exact-key hits, so every setting is
// result-preserving.
const EnvResultMemoEntries = "LEQA_RESULT_MEMO_ENTRIES"

// ResultMemoEntriesFromEnv reads LEQA_RESULT_MEMO_ENTRIES: 0 when unset
// (select the default), positive for an explicit LRU cap, negative to
// disable the result memo.
func ResultMemoEntriesFromEnv() (int, error) {
	n := 0
	err := applyEnvInt(EnvResultMemoEntries, func(v int) { n = v })
	return n, err
}

// StoreOptionsFromEnv overlays the LEQA_STORE_* variables onto opt,
// leaving unset ones alone — the env half of the store configuration; the
// commands apply their flags on top.
func StoreOptionsFromEnv(opt AnalysisStoreOptions) (AnalysisStoreOptions, error) {
	if v := os.Getenv(EnvStoreDir); v != "" {
		opt.Dir = v
	}
	if err := applyEnvInt(EnvStoreMem, func(n int) { opt.MemEntries = n }); err != nil {
		return opt, err
	}
	err := applyEnvInt64(EnvStoreDiskBytes, func(n int64) { opt.MaxDiskBytes = n })
	return opt, err
}

// ShardThreshold reports the analysis build's shard dispatch threshold
// (gates).
func ShardThreshold() int { return analysis.ShardThreshold }

// SetShardThreshold sets the analysis build's shard dispatch threshold;
// zero or negative disables sharding. Call at program start, before
// concurrent estimates run — the variable is read unsynchronized on every
// analysis. Purely a performance knob: it never affects results.
func SetShardThreshold(gates int) { analysis.ShardThreshold = gates }

// ApplyEnvTuning applies LEQA_SHARD_THRESHOLD when it is set, leaving the
// default otherwise. Call once at program start, before the flag that
// overrides it and before any estimates run.
func ApplyEnvTuning() error {
	return applyEnvInt(EnvShardThreshold, SetShardThreshold)
}

func applyEnvInt(name string, set func(int)) error {
	v := os.Getenv(name)
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("%s=%q: not an integer", name, v)
	}
	set(n)
	return nil
}

func applyEnvInt64(name string, set func(int64)) error {
	v := os.Getenv(name)
	if v == "" {
		return nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return fmt.Errorf("%s=%q: not an integer", name, v)
	}
	set(n)
	return nil
}
