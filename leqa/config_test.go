package leqa

import (
	"strings"
	"testing"
)

// TestStoreOptionsFromEnv covers the LEQA_STORE_* startup variables: unset
// ones leave the options alone, set ones land in them, and a non-integer
// value fails with the variable named.
func TestStoreOptionsFromEnv(t *testing.T) {
	t.Run("Unset", func(t *testing.T) {
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

	t.Run("Set", func(t *testing.T) {
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

	t.Run("Invalid", func(t *testing.T) {
		t.Setenv(EnvStoreDiskBytes, "huge")
		_, err := StoreOptionsFromEnv(AnalysisStoreOptions{})
		if err == nil || !strings.Contains(err.Error(), EnvStoreDiskBytes) {
			t.Fatalf("err = %v, want mention of %s", err, EnvStoreDiskBytes)
		}
	})
}
