package leqa

import (
	"fmt"
	"os"
	"strconv"
)

// Environment variables read by StoreOptionsFromEnv. They configure the
// content-addressed analysis store cmd/leqad attaches (flags of the same
// meaning override):
//
//   - LEQA_STORE_DIR — disk-tier directory for persisted analysis images,
//     the .qcb netlists of analyzed gates, rebuilt on load and checked
//     against their digests; empty keeps the store memory-only.
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
