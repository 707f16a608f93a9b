package bench

import (
	"io"
	"net/http"
	"sync"
	"testing"

	"rapid/internal/hostdb"
	"rapid/internal/qef"
	"rapid/internal/tpch"
)

var (
	profBenchOnce sync.Once
	profBenchDB   *hostdb.Database
	profBenchQ1   string
	profBenchErr  error
)

func profBenchSetup(b *testing.B) (*hostdb.Database, string) {
	b.Helper()
	profBenchOnce.Do(func() {
		profBenchDB, profBenchErr = SetupTPCH(0.01)
		for _, q := range tpch.Queries() {
			if q.Name == "Q1" {
				profBenchQ1 = q.SQL
			}
		}
	})
	if profBenchErr != nil {
		b.Fatal(profBenchErr)
	}
	if profBenchQ1 == "" {
		b.Fatal("no Q1")
	}
	return profBenchDB, profBenchQ1
}

func benchQ1X86(b *testing.B, profile bool) {
	db, sql := profBenchSetup(b)
	opts := hostdb.QueryOptions{
		Mode: hostdb.ForceOffload, RapidMode: qef.ModeX86,
		FailOnInadmissible: true, Profile: profile,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(sql, opts)
		if err != nil {
			b.Fatal(err)
		}
		if profile && res.Profile == nil {
			b.Fatal("profiling requested but no profile returned")
		}
	}
}

// The profiling-overhead guard: compare with
//
//	go test ./internal/bench -bench 'Q1X86Profile' -benchtime 20x
//
// The acceptance bar for this instrumentation is < 5% overhead on Q1.
func BenchmarkQ1X86ProfileOff(b *testing.B) { benchQ1X86(b, false) }

func BenchmarkQ1X86ProfileOn(b *testing.B) { benchQ1X86(b, true) }

// BenchmarkQ1X86ProfileOnExporter runs the profiled benchmark with the
// telemetry endpoint live and a scraper hitting /metrics throughout, so the
// <5% overhead bar is held with the exporter enabled too.
func BenchmarkQ1X86ProfileOnExporter(b *testing.B) {
	db, _ := profBenchSetup(b)
	srv, err := db.ServeTelemetryWith("127.0.0.1:0", false)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL())
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	benchQ1X86(b, true)
	close(stop)
	<-done
}
