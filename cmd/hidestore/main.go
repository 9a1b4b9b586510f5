// Command hidestore is a small backup tool over the HiDeStore library.
//
// Usage:
//
//	hidestore -dir /backups backup  <file|->       # back up a stream
//	hidestore -dir /backups backup-dir <directory> # back up a directory tree
//	hidestore -dir /backups restore <version> [-o out]
//	hidestore -dir /backups restore-dir <version> <destination>
//	hidestore -dir /backups delete  <version>
//	hidestore -dir /backups versions
//	hidestore -dir /backups stats
//	hidestore -dir /backups analyze [version]      # layout/fragmentation report (-json for machines)
//	hidestore checkmetrics <metrics.prom>          # validate an exposition dump
//
// Observability: -trace FILE appends JSONL spans for the invocation (the
// file accumulates across invocations; read it with `go run
// ./cmd/tracereport FILE`), -debug-addr ADDR serves /metrics,
// /metrics.json, /healthz, /debug/vars, /debug/pprof and /debug/layout
// for the life of the command, and -metrics-out FILE dumps the
// Prometheus exposition on exit. When either metrics consumer is active
// a background sampler feeds runtime-health gauges (heap, goroutines,
// GC pauses) into the registry. All switches are off by default and add
// no overhead when unset. Interrupts (SIGINT/SIGTERM) cancel in-flight
// work but still run the finalizers: the trace file gets its closing
// anchor and the metrics dump is written.
//
// Directory backups serialize the tree (sorted walk, path+size headers +
// file contents) into one stream, so adjacent snapshots of the same tree
// deduplicate chunk-by-chunk; restore-dir reverses the framing.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hidestore"
	"hidestore/internal/backup"
	"hidestore/internal/cleanup"
	"hidestore/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hidestore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Interrupts cancel in-flight work (restores stop within one
	// container read) instead of killing the process mid-write; the
	// deferred finalizers in runCtx still run, so -trace and
	// -metrics-out files are left complete and parseable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args)
}

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hidestore", flag.ContinueOnError)
	var (
		dir      = fs.String("dir", "", "storage directory (required)")
		out      = fs.String("o", "", "restore output file (default stdout)")
		window   = fs.Int("window", 1, "fingerprint-cache window in versions")
		alg      = fs.String("chunker", "tttd", "chunking algorithm: tttd|rabin|fastcdc|ae|fixed")
		ctnSize  = fs.Int("container", 4<<20, "container size in bytes")
		cache    = fs.String("restore-cache", "faa", "restore cache: faa|alacc|container-lru|chunk-lru|opt")
		prefetch = fs.Int("prefetch", 0, "restore read-ahead depth in containers (0 = default, negative disables)")
		workers  = fs.Int("restore-workers", 0, "parallel restore assembly: >1 assembles chunk spans on that many workers, out of order (container fetches overlap up to -prefetch either way; bytes and read counts are identical to serial; 0/1 = serial)")
		compress = fs.Bool("compress", false, "DEFLATE-compress containers at rest")
		repair   = fs.Bool("repair", false, "fsck only: quarantine corrupt containers and name affected versions")
		throttle = fs.Float64("scrub-throttle", 0, "scrub only: verification I/O cap in MB/s (0 = default 32, negative = unthrottled)")
		jsonOut  = fs.Bool("json", false, "analyze only: emit the layout report as JSON instead of text")
		policies = fs.String("policies", "", "analyze only: comma-separated cache policies to simulate (default all)")

		tracePath  = fs.String("trace", "", "append JSONL spans for this invocation to FILE")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, expvar and pprof on ADDR for the life of the command")
		metricsOut = fs.String("metrics-out", "", "dump the Prometheus exposition to FILE on exit")

		backendKind  = fs.String("backend", "local", "storage backend: local|remote (remote simulates a high-latency store with retry, rate limiting and a local container cache)")
		backendLat   = fs.Duration("backend-latency", 0, "remote backend: simulated per-operation round-trip")
		backendBW    = fs.Float64("backend-bandwidth", 0, "remote backend: simulated payload bandwidth in MB/s (0 = unlimited)")
		backendErrs  = fs.Float64("backend-err-rate", 0, "remote backend: injected transient-failure probability per op (0..1)")
		backendSeed  = fs.Int64("backend-seed", 0, "remote backend: seed for the injected-failure stream")
		backendTries = fs.Int("backend-retries", 0, "remote backend: per-op attempt budget for transient failures (0 = default 4)")
		backendRate  = fs.Float64("backend-rate-limit", 0, "remote backend: client-side throughput cap in MB/s (0 = off)")
		backendCache = fs.Int("backend-cache-mb", 0, "remote backend: persistent local container-read cache size in MB (0 = off)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hidestore -dir DIR <fsck|scrub|verify|flatten|backup|backup-dir|restore|restore-dir|delete|versions|stats|analyze> [args]")
		fmt.Fprintln(os.Stderr, "       hidestore checkmetrics <metrics.prom>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return errors.New("missing command")
	}
	// The offline validator works on a file, not a store: no -dir.
	if rest[0] == "checkmetrics" {
		return runCheckMetrics(rest[1:])
	}
	if *dir == "" {
		return errors.New("-dir is required")
	}

	// The observability plane: all three switches are independent, but
	// the metrics registry exists if any consumer (server or dump file)
	// wants it.
	var reg *obs.Registry
	if *debugAddr != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		t, err := obs.OpenTraceFile(*tracePath)
		if err != nil {
			return err
		}
		tracer = t
	}

	sys, err := hidestore.Open(hidestore.Config{
		Dir:            *dir,
		Window:         *window,
		Chunker:        *alg,
		ContainerSize:  *ctnSize,
		RestoreCache:   *cache,
		PrefetchDepth:  *prefetch,
		RestoreWorkers: *workers,
		Compress:       *compress,
		Metrics:        reg,
		Tracer:         tracer,
		Backend: hidestore.BackendConfig{
			Kind:          *backendKind,
			Latency:       *backendLat,
			BandwidthMBps: *backendBW,
			ErrRate:       *backendErrs,
			Seed:          *backendSeed,
			Retries:       *backendTries,
			RateLimitMBps: *backendRate,
			CacheMB:       *backendCache,
		},
	})
	if err != nil {
		//hidelint:ignore discarded-error tracer teardown on the Open error path; the Open failure is the error that matters
		_ = tracer.Close()
		return err
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, reg,
			obs.WithHandler("/healthz", sys.HealthHandler()),
			obs.WithHandler("/debug/layout", sys.LayoutHandler()),
		)
		if err != nil {
			//hidelint:ignore discarded-error tracer teardown on the listen error path; the listen failure is the error that matters
			_ = tracer.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics\n", srv.Addr())
		// Shut down with the command (or the interrupt that cancelled
		// it): the server must never outlive run, and Shutdown reaps the
		// serving goroutine so an interrupted process exits cleanly.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Fprintln(os.Stderr, "hidestore: debug server shutdown:", err)
			}
		}()
	}
	if tracer != nil {
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "hidestore: trace:", err)
			}
		}()
	}
	if *metricsOut != "" {
		defer func() {
			if err := os.WriteFile(*metricsOut, []byte(reg.PrometheusText()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hidestore: metrics dump:", err)
			}
		}()
	}
	if reg != nil {
		// Runtime-health gauges (heap, goroutines, GC pauses) for the
		// life of the command. Registered after the -metrics-out defer so
		// Stop's final sample lands before the dump is written.
		sampler := obs.StartRuntimeSampler(reg, 0)
		defer sampler.Stop()
	}
	switch cmd := rest[0]; cmd {
	case "backup":
		if len(rest) != 2 {
			return errors.New("backup needs exactly one source (file or -)")
		}
		var in io.Reader = os.Stdin
		if rest[1] != "-" {
			f, err := os.Open(rest[1])
			if err != nil {
				return err
			}
			defer cleanup.Close(f) // read-only input
			in = f
		}
		rep, err := sys.Backup(ctx, in)
		if err != nil {
			return err
		}
		printBackupReport(rep)
	case "backup-dir":
		if len(rest) != 2 {
			return errors.New("backup-dir needs exactly one directory")
		}
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(writeTree(pw, rest[1])) }()
		rep, err := sys.Backup(ctx, pr)
		if err != nil {
			return err
		}
		printBackupReport(rep)
	case "restore":
		version, err := parseVersion(rest)
		if err != nil {
			return err
		}
		var w io.Writer = os.Stdout
		closeOut := func() error { return nil }
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer cleanup.Close(f) // error-path release; success path checks closeOut below
			w = f
			closeOut = f.Close
		}
		rep, err := sys.Restore(ctx, version, w)
		if err != nil {
			return err
		}
		// A failed close of the written output means truncated restore data.
		if err := closeOut(); err != nil {
			return fmt.Errorf("close %s: %w", *out, err)
		}
		fmt.Fprintf(os.Stderr, "restored v%d: %d bytes, %d container reads, %d recipe reads, speed factor %.2f MB/read\n",
			rep.Version, rep.BytesRestored, rep.ContainerReads, rep.RecipesRead, rep.SpeedFactor)
	case "restore-dir":
		if len(rest) != 3 {
			return errors.New("restore-dir needs a version and a destination")
		}
		version, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad version %q", rest[1])
		}
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() { done <- readTree(pr, rest[2]) }()
		rep, err := sys.Restore(ctx, version, pw)
		pw.CloseWithError(err)
		if unpackErr := <-done; err == nil && unpackErr != nil {
			return unpackErr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "restored v%d into %s (%d bytes, %d container reads)\n",
			rep.Version, rest[2], rep.BytesRestored, rep.ContainerReads)
	case "delete":
		version, err := parseVersion(rest)
		if err != nil {
			return err
		}
		rep, err := sys.Delete(version)
		if err != nil {
			return err
		}
		fmt.Printf("deleted v%d: %d containers dropped, %d bytes reclaimed in %s\n",
			rep.Version, rep.ContainersDeleted, rep.BytesReclaimed, rep.Duration)
	case "versions":
		for _, v := range sys.Versions() {
			fmt.Println(v)
		}
	case "flatten":
		if len(rest) != 1 {
			return errors.New("flatten takes no arguments")
		}
		rep, err := sys.Flatten()
		if err != nil {
			return err
		}
		fmt.Printf("flattened recipe chains across %d versions in %s\n", rep.Versions, rep.Duration)
	case "verify":
		version, err := parseVersion(rest)
		if err != nil {
			return err
		}
		rep, err := sys.VerifyRestore(ctx, version, io.Discard)
		if err != nil {
			return err
		}
		fmt.Printf("verified v%d: %d bytes, every fetched chunk matched its fingerprint\n",
			rep.Version, rep.BytesRestored)
	case "fsck":
		var rep hidestore.FsckReport
		if *repair {
			rep, err = sys.FsckRepair()
		} else {
			rep, err = sys.Fsck()
		}
		if err != nil {
			return err
		}
		fmt.Printf("checked %d containers (%d chunks), %d recipes (%d references)\n",
			rep.Containers, rep.StoredChunks, rep.Versions, rep.Chunks)
		for _, q := range rep.Quarantined {
			fmt.Println("QUARANTINED:", q)
		}
		for _, v := range rep.AffectedVersions {
			fmt.Printf("AFFECTED: v%d lost chunks to a quarantined container; its restore will fail\n", v)
		}
		if !rep.OK() {
			for _, p := range rep.Problems {
				fmt.Println("PROBLEM:", p)
			}
			return fmt.Errorf("%d problems found", len(rep.Problems))
		}
		fmt.Println("store is healthy")
	case "scrub":
		if len(rest) != 1 {
			return errors.New("scrub takes no arguments")
		}
		var (
			mu         sync.Mutex
			containers int
			chunks     int
			verified   uint64
			corrupt    []string
			stepErrs   int
		)
		pass := make(chan struct{})
		var passOnce sync.Once
		stop, err := sys.StartScrub(hidestore.ScrubOptions{
			ThrottleMBps: *throttle,
			OnStep: func(rep backup.ScrubStepReport, err error) {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err != nil:
					stepErrs++
					fmt.Fprintln(os.Stderr, "hidestore: scrub:", err)
				case rep.Corrupt != "":
					line := fmt.Sprintf("container %d: %s", rep.Container, rep.Corrupt)
					if rep.Quarantined != "" {
						line += " (quarantined to " + rep.Quarantined + ")"
					}
					corrupt = append(corrupt, line)
					fmt.Println("CORRUPT:", line)
				case !rep.Skipped:
					containers++
					chunks += rep.Chunks
					verified += rep.Bytes
				}
				if rep.PassComplete {
					passOnce.Do(func() { close(pass) })
				}
			},
		})
		if err != nil {
			return err
		}
		// One full pass (or the interrupt), then stop the background
		// goroutine before reading the totals.
		select {
		case <-pass:
		case <-ctx.Done():
		}
		stop()
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf("scrubbed %d containers (%d chunks, %d bytes verified)\n", containers, chunks, verified)
		if stepErrs > 0 {
			return fmt.Errorf("%d scrub steps failed", stepErrs)
		}
		if len(corrupt) > 0 {
			return fmt.Errorf("%d corrupt containers found", len(corrupt))
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		fmt.Println("store is healthy")
	case "stats":
		st := sys.Stats()
		fmt.Printf("versions:          %d\n", st.Versions)
		fmt.Printf("logical bytes:     %d\n", st.LogicalBytes)
		fmt.Printf("stored bytes:      %d\n", st.StoredBytes)
		fmt.Printf("dedup ratio:       %.2f%%\n", st.DedupRatio*100)
		fmt.Printf("containers:        %d\n", st.Containers)
		fmt.Printf("index memory:      %dB\n", st.IndexMemoryBytes)
		fmt.Printf("disk index reads:  %d\n", st.DiskIndexLookups)
		for _, d := range st.Degraded {
			fmt.Fprintln(os.Stderr, "WARNING: degraded:", d)
		}
	case "analyze":
		version := 0
		switch len(rest) {
		case 1:
			vs := sys.Versions()
			if len(vs) == 0 {
				return errors.New("analyze: no versions stored")
			}
			version = vs[len(vs)-1]
		case 2:
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				return fmt.Errorf("bad version %q", rest[1])
			}
			version = v
		default:
			return errors.New("analyze takes at most one version")
		}
		var pols []string
		if *policies != "" {
			for _, p := range strings.Split(*policies, ",") {
				if p = strings.TrimSpace(p); p != "" {
					pols = append(pols, p)
				}
			}
		}
		rep, err := sys.AnalyzeLayout(ctx, version, pols)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		printLayoutReport(rep)
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// runCheckMetrics validates a Prometheus text exposition dump (such as a
// -metrics-out file or a scraped /metrics body); CI fails the build on a
// malformed exposition.
func runCheckMetrics(args []string) error {
	if len(args) != 1 {
		return errors.New("checkmetrics needs exactly one exposition file")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer cleanup.Close(f) // read-only input
	if err := obs.ValidateExposition(f); err != nil {
		return err
	}
	fmt.Println("exposition is well-formed")
	return nil
}

func parseVersion(rest []string) (int, error) {
	if len(rest) != 2 {
		return 0, errors.New("need exactly one version number")
	}
	v, err := strconv.Atoi(rest[1])
	if err != nil {
		return 0, fmt.Errorf("bad version %q", rest[1])
	}
	return v, nil
}

// printLayoutReport renders the layout profile: the fragmentation
// block first (how the version is packed), then one line per simulated
// cache policy (what restoring it would cost).
func printLayoutReport(rep hidestore.LayoutReport) {
	fmt.Printf("layout of v%d:\n", rep.Version)
	fmt.Printf("  logical bytes:      %d (%d chunks)\n", rep.LogicalBytes, rep.Chunks)
	fmt.Printf("  containers:         %d referenced, %d optimal\n", rep.UniqueContainers, rep.OptimalContainers)
	fmt.Printf("  CFL:                %.3f (1.0 = perfectly packed)\n", rep.CFL)
	fmt.Printf("  containers per MB:  %.3f\n", rep.ContainersPerMB)
	fmt.Printf("  utilization:        %.2f%% (%d live of %d stored payload bytes)\n",
		rep.Utilization*100, rep.ReferencedBytes, rep.ContainerBytes)
	if len(rep.Policies) > 0 {
		fmt.Println("  simulated restore cost (exact container reads, not an estimate):")
		for _, p := range rep.Policies {
			fmt.Printf("    %-14s %6d reads, %6d cache hits, speed factor %.2f MB/read\n",
				p.Policy, p.ContainerReads, p.CacheHits, p.SpeedFactor)
		}
	}
}

func printBackupReport(rep hidestore.BackupReport) {
	fmt.Printf("backed up v%d: %d bytes, %d chunks (%d unique), dedup ratio %.2f%%, %s\n",
		rep.Version, rep.LogicalBytes, rep.Chunks, rep.UniqueChunks,
		rep.DedupRatio*100, rep.Duration)
	if rep.LogicalBytes > 0 {
		fmt.Printf("  container bytes written: %d (%d migrated, %d merged) = %.3fx logical\n",
			rep.ContainerBytesWritten, rep.MigratedBytes, rep.MergedBytes,
			float64(rep.ContainerBytesWritten)/float64(rep.LogicalBytes))
	}
	fmt.Printf("  blocked on container commits: %s\n", rep.CommitWait)
}

// writeTree serializes a directory: for each regular file in sorted walk
// order, a header (path length u32, path, size u64) followed by contents.
func writeTree(w io.Writer, root string) error {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		var hdr [12]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(len(rel)))
		binary.BigEndian.PutUint64(hdr[4:], uint64(info.Size()))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, rel); err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = io.Copy(w, f)
		cleanup.Close(f) // read-only input
		if err != nil {
			return err
		}
	}
	return nil
}

// readTree reverses writeTree into dest.
func readTree(r io.Reader, dest string) error {
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		pathLen := binary.BigEndian.Uint32(hdr[0:])
		size := binary.BigEndian.Uint64(hdr[4:])
		if pathLen == 0 || pathLen > 1<<16 {
			return fmt.Errorf("corrupt tree stream: path length %d", pathLen)
		}
		nameBuf := make([]byte, pathLen)
		if _, err := io.ReadFull(r, nameBuf); err != nil {
			return err
		}
		rel := filepath.FromSlash(string(nameBuf))
		if strings.Contains(rel, "..") || filepath.IsAbs(rel) {
			return fmt.Errorf("corrupt tree stream: unsafe path %q", rel)
		}
		target := filepath.Join(dest, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		f, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.CopyN(f, r, int64(size)); err != nil {
			cleanup.Close(f)
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
}
