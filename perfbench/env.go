package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// Record is the reproducibility record printed with every result.
type Record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
}

// Environment describes the machine and the code under test.
func Environment(o Options) Record {
	return Record{
		Workload:   o.Workload,
		Seed:       o.Seed,
		Trace:      o.Trace,
		Seconds:    o.Seconds,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the git revision the binary was built
// from when the build saw one, else a digest of the Go sources and module
// files under the working directory (the benchmark runs from the root of
// a checkout that need not be a git repository).
func commit() string {
	if rev := buildRevision(); rev != "" {
		return rev
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// binaryDigest identifies the benchmark binary, which contains all the
// library code it measures.
func binaryDigest() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRecord compares a run's modelled figures with those an earlier
// run of the same binary, workload, seed and trace setting recorded in
// the output directory, and records them if there are none. The
// simulator is deterministic: a difference is a bug, not noise, and
// fails the run.
func checkRecord(out *Output, o Options, figures any) {
	digest := binaryDigest()
	if digest == "" {
		return
	}
	data, err := json.Marshal(figures)
	if err != nil {
		return
	}
	path := filepath.Join(o.OutDir, fmt.Sprintf("modelled-%s-seed%d-trace%v.json", o.Workload, o.Seed, o.Trace))
	var prev struct {
		Binary  string          `json:"binary"`
		Figures json.RawMessage `json:"figures"`
	}
	if old, err := os.ReadFile(path); err == nil && json.Unmarshal(old, &prev) == nil && prev.Binary == digest {
		if string(prev.Figures) != string(data) {
			out.Gate.Fail(fmt.Sprintf("modelled figures differ from an earlier run of this binary and seed (%s)", path))
		}
		return
	}
	rec, _ := json.Marshal(map[string]any{"binary": digest, "figures": json.RawMessage(data)})
	// A record that cannot be written only leaves later runs unchecked.
	_ = os.WriteFile(path, rec, 0o644)
}

// writeSpans writes the traced run's spans to the output directory.
func writeSpans(o Options, tr *Tracer) error {
	f, err := os.Create(filepath.Join(o.OutDir, fmt.Sprintf("spans-%s-seed%d.json", o.Workload, o.Seed)))
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
