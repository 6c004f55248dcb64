package leqa

import (
	"strings"
	"testing"
)

// TestApplyEnvTuning covers the LEQA_* startup knobs: unset variables leave
// the defaults alone, set ones land in the shard dispatch threshold and the
// store options, and non-integer values fail with the variable named.
func TestApplyEnvTuning(t *testing.T) {
	saved := ShardThreshold()
	defer SetShardThreshold(saved)

	t.Run("Unset", func(t *testing.T) {
		t.Setenv(EnvShardThreshold, "")
		SetShardThreshold(67890)
		if err := ApplyEnvTuning(); err != nil {
			t.Fatal(err)
		}
		if ShardThreshold() != 67890 {
			t.Fatalf("unset env changed the shard threshold: %d", ShardThreshold())
		}
	})

	t.Run("Set", func(t *testing.T) {
		t.Setenv(EnvShardThreshold, "0")
		if err := ApplyEnvTuning(); err != nil {
			t.Fatal(err)
		}
		if ShardThreshold() != 0 {
			t.Errorf("ShardThreshold = %d, want 0 (disabled)", ShardThreshold())
		}
	})

	t.Run("Invalid", func(t *testing.T) {
		t.Setenv(EnvShardThreshold, "lots")
		err := ApplyEnvTuning()
		if err == nil || !strings.Contains(err.Error(), EnvShardThreshold) {
			t.Fatalf("err = %v, want mention of %s", err, EnvShardThreshold)
		}
	})

	t.Run("StoreUnset", func(t *testing.T) {
		t.Setenv(EnvStoreDir, "")
		t.Setenv(EnvStoreMem, "")
		t.Setenv(EnvStoreDiskBytes, "")
		in := AnalysisStoreOptions{MemEntries: 7, Dir: "/keep", MaxDiskBytes: 99}
		got, err := StoreOptionsFromEnv(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != in {
			t.Fatalf("unset env changed store options: %+v", got)
		}
	})

	t.Run("StoreSet", func(t *testing.T) {
		t.Setenv(EnvStoreDir, "/tmp/qca")
		t.Setenv(EnvStoreMem, "128")
		t.Setenv(EnvStoreDiskBytes, "1073741824")
		got, err := StoreOptionsFromEnv(AnalysisStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := AnalysisStoreOptions{MemEntries: 128, Dir: "/tmp/qca", MaxDiskBytes: 1 << 30}
		if got != want {
			t.Fatalf("StoreOptionsFromEnv = %+v, want %+v", got, want)
		}
	})

	t.Run("StoreInvalid", func(t *testing.T) {
		t.Setenv(EnvStoreDiskBytes, "huge")
		_, err := StoreOptionsFromEnv(AnalysisStoreOptions{})
		if err == nil || !strings.Contains(err.Error(), EnvStoreDiskBytes) {
			t.Fatalf("err = %v, want mention of %s", err, EnvStoreDiskBytes)
		}
	})
}
