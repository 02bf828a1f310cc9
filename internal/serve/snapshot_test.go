package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gemm"
	"repro/internal/hw"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// dropAllEncoded swaps each tuner for one holding the same entries, in the
// same LRU order, without reply bytes, so the next request is forced through
// the slow (encode-per-request) path.
func dropAllEncoded(t *testing.T, s *Service) {
	t.Helper()
	for p := range s.tuners {
		tn := s.tuners[p].Load()
		if tn == nil {
			continue
		}
		bare := s.newTuner(tn.Prim, tn.Curve)
		bare.Encode = nil
		if err := bare.SeedCache(tn.CacheSnapshot()); err != nil {
			t.Fatal(err)
		}
		s.tuners[p].Store(bare)
	}
}

// The pre-encoded fast path must emit the same bytes the slow path renders.
func TestQueryFastPathBytesMatchSlowPath(t *testing.T) {
	s := testService(t)
	shape := gemm.Shape{M: 2048, N: 8192, K: 4096}
	if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{shape}, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	url := srv.URL + "/query?m=2048&n=8192&k=4096&prim=AR"

	fast := getBody(t, url)
	if got := s.Stats().EncodedHits; got != 1 {
		t.Fatalf("hits_encoded = %d after a warmed query, want 1", got)
	}
	dropAllEncoded(t, s)
	slow := getBody(t, url)
	if got := s.Stats().EncodedHits; got != 1 {
		t.Fatalf("hits_encoded = %d, the second query must not take the fast path", got)
	}
	if string(fast) != string(slow) {
		t.Fatalf("fast path bytes differ from slow path:\nfast: %s\nslow: %s", fast, slow)
	}
}

// A miss that tunes must pre-encode its answer so the next identical query
// takes the fast path — and the fast-path bytes must match the cache-hit
// reply the slow path would render (Source "cache", not "tuned").
func TestTunedQueryPreEncodesNextHit(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	url := srv.URL + "/query?m=4096&n=8192&k=4096&prim=A2A&imbalance=2"

	first := getBody(t, url) // cold: tunes, stores the encoding
	second := getBody(t, url)
	if got := s.Stats().EncodedHits; got != 1 {
		t.Fatalf("hits_encoded = %d after tune+hit, want 1", got)
	}
	dropAllEncoded(t, s)
	third := getBody(t, url) // slow-path cache hit
	if string(second) != string(third) {
		t.Fatalf("fast path bytes differ from slow-path cache hit:\nfast: %s\nslow: %s", second, third)
	}
	if string(first) == string(second) {
		t.Fatal("first (tuned) reply should differ from cache hits in its source field")
	}
}

// Re-tuning a shape must replace its pre-encoded reply, not serve stale
// bytes: the new shape-cache entry carries a fresh rendering.
func TestRetuneDropsStaleEncoding(t *testing.T) {
	s := testService(t)
	shape := gemm.Shape{M: 2048, N: 8192, K: 4096}
	warm := func() []byte {
		t.Helper()
		if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{shape}, 0); err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().WarmEncoded; n != 1 {
			t.Fatalf("warm_encoded = %d, want 1", n)
		}
		buf, ok := s.tuners[hw.AllReduce].Load().Encoded(shape, 0)
		if !ok {
			t.Fatal("the warmed entry holds no reply bytes")
		}
		return buf
	}
	before := warm()
	// Warm again: the tuner replaces the entry, and its bytes with it.
	after := warm()
	if &after[0] == &before[0] {
		t.Fatal("re-tune kept the replaced entry's reply bytes")
	}
	if string(after) != string(before) {
		t.Fatalf("re-tune rendered different bytes for a deterministic tune:\nbefore: %s\nafter:  %s", before, after)
	}
}

// The service-layer warm path must not allocate: the reply bytes were
// encoded at tune time and are handed out as-is.
func TestWarmQueryEncodedAllocs(t *testing.T) {
	s := testService(t)
	shape := gemm.Shape{M: 2048, N: 8192, K: 4096}
	if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{shape}, 0); err != nil {
		t.Fatal(err)
	}
	q := Query{Shape: shape, Prim: hw.AllReduce}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := s.QueryEncoded(q); !ok {
			t.Fatal("warmed query missed the encoded fast path")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm encoded query allocates %.1f times, want 0", allocs)
	}
}

// The pre-encoded replies live in the shape cache's entries, so they cannot
// outlive them: after a Warm or a RestoreSnapshot of more shapes than the
// cache holds, exactly the entries it kept answer on the fast path, and a
// replica restored from the warmed service's snapshot answers every warmed
// shape with that service's bytes.
func TestEncodedRepliesFollowTheShapeCache(t *testing.T) {
	shapes := []gemm.Shape{
		{M: 2048, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 4096},
		{M: 4096, N: 8192, K: 8192},
		{M: 8192, N: 8192, K: 4096},
	}
	ar := []hw.Primitive{hw.AllReduce}
	small := func() *Service {
		t.Helper()
		s, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64, ShapeCacheSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// check holds a two-entry cache that saw all four shapes.
	check := func(name string, s *Service) {
		t.Helper()
		if st := s.Stats(); st.ShapesCached != 2 || st.WarmEncoded != st.ShapesCached {
			t.Errorf("%s: shapes_cached %d, warm_encoded %d; want 2 and 2", name, st.ShapesCached, st.WarmEncoded)
		}
		kept := make(map[gemm.Shape]bool)
		for _, e := range s.Snapshot().Primitives[0].Entries {
			kept[gemm.Shape{M: e.M, N: e.N, K: e.K}] = true
		}
		for _, shape := range shapes {
			if _, hit := s.QueryEncoded(Query{Shape: shape, Prim: hw.AllReduce}); hit != kept[shape] {
				t.Errorf("%s: %v is cached %v, but QueryEncoded hit %v", name, shape, kept[shape], hit)
			}
		}
	}

	warmed := small()
	if err := warmed.Warm(context.Background(), ar, shapes, 0); err != nil {
		t.Fatal(err)
	}
	check("warm", warmed)

	big := testService(t)
	if err := big.Warm(context.Background(), ar, shapes, 0); err != nil {
		t.Fatal(err)
	}
	restoredSmall := small()
	n, err := restoredSmall.RestoreSnapshot(big.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	check("restore", restoredSmall)
	if st := restoredSmall.Stats(); n != 2 || st.SnapshotRestored != uint64(st.ShapesCached) {
		t.Errorf("restore: RestoreSnapshot returned %d and snapshot_restored reads %d for %d cached shapes; want 2 and 2", n, st.SnapshotRestored, st.ShapesCached)
	}

	restored := small()
	if _, err := restored.RestoreSnapshot(warmed.Snapshot()); err != nil {
		t.Fatal(err)
	}
	srvW := httptest.NewServer(Handler(warmed))
	defer srvW.Close()
	srvR := httptest.NewServer(Handler(restored))
	defer srvR.Close()
	for _, shape := range shapes {
		u := fmt.Sprintf("/query?m=%d&n=%d&k=%d&prim=AR", shape.M, shape.N, shape.K)
		if want, got := getBody(t, srvW.URL+u), getBody(t, srvR.URL+u); string(got) != string(want) {
			t.Errorf("%s: restored replica replied\n%s\nits source replied\n%s", u, got, want)
		}
	}
}

// Restart drill: a service restored from a snapshot must answer every
// query byte-identically to the service that wrote it — warmed shapes and
// tuned-on-demand shapes alike — without re-tuning anything.
func TestSnapshotRestoreBytesIdentical(t *testing.T) {
	a := testService(t)
	warm := []gemm.Shape{{M: 2048, N: 8192, K: 4096}, {M: 4096, N: 8192, K: 4096}}
	if err := a.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, warm, 0); err != nil {
		t.Fatal(err)
	}
	// One shape arrives through live traffic rather than warming, on a
	// second primitive with a skewed imbalance.
	if _, err := a.Query(context.Background(), Query{Shape: gemm.Shape{M: 4096, N: 8192, K: 8192}, Prim: hw.AllToAll, Imbalance: 4}); err != nil {
		t.Fatal(err)
	}

	urls := []string{
		"/query?m=2048&n=8192&k=4096&prim=AR",
		"/query?m=4096&n=8192&k=4096&prim=AR",
		"/query?m=4096&n=8192&k=8192&prim=A2A&imbalance=4",
	}
	srvA := httptest.NewServer(Handler(a))
	before := make([][]byte, len(urls))
	for i, u := range urls {
		before[i] = getBody(t, srvA.URL+u)
	}
	srvA.Close()

	path := filepath.Join(t.TempDir(), "warm.json")
	if err := a.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	b := testService(t)
	restored, err := b.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 {
		t.Fatalf("restored %d entries, want 3", restored)
	}
	srvB := httptest.NewServer(Handler(b))
	defer srvB.Close()
	for i, u := range urls {
		after := getBody(t, srvB.URL+u)
		if string(after) != string(before[i]) {
			t.Fatalf("%s: restored reply differs from pre-restart reply:\nbefore: %s\nafter:  %s", u, before[i], after)
		}
	}
	st := b.Stats()
	if st.Tunes != 0 {
		t.Fatalf("restored service re-tuned %d times answering snapshotted queries", st.Tunes)
	}
	if st.SnapshotRestored != 3 || st.ShapesCached != 3 || st.WarmEncoded != 3 {
		t.Fatalf("restored stats = %+v, want 3 restored / 3 cached / 3 encoded", st)
	}
	if st.EncodedHits != uint64(len(urls)) {
		t.Fatalf("hits_encoded = %d, every restored query should take the fast path", st.EncodedHits)
	}
}

// Every corrupt or mismatched snapshot must load as a cold start: an error,
// a bumped reject counter, no partial state, and a service that still
// answers queries.
func TestSnapshotRejectsLoadCold(t *testing.T) {
	src := testService(t)
	if err := src.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{{M: 2048, N: 8192, K: 4096}}, 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := src.SaveSnapshotFile(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	truncated := write("truncated.json", raw[:len(raw)/2])
	flipped := append([]byte(nil), raw...)
	// Flip a bit inside the payload body (past the envelope header) so the
	// JSON still parses but the checksum no longer matches.
	for i := len(flipped) / 2; i < len(flipped); i++ {
		if flipped[i] >= '1' && flipped[i] <= '8' {
			flipped[i]++
			break
		}
	}
	bitrot := write("bitrot.json", flipped)
	notSnapshot := write("notes.json", []byte(`{"magic":"something-else","version":1,"crc32":"0","payload":{}}`))

	cases := map[string]func(s *Service) string{
		"missing file": func(s *Service) string { return filepath.Join(dir, "nope.json") },
		"truncated":    func(s *Service) string { return truncated },
		"bit rot":      func(s *Service) string { return bitrot },
		"wrong magic":  func(s *Service) string { return notSnapshot },
		"wrong platform": func(s *Service) string {
			other, err := New(Config{Plat: hw.H100NVLink(), NGPUs: 2, CandidateLimit: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := other.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{{M: 2048, N: 8192, K: 4096}}, 0); err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "h100.json")
			if err := other.SaveSnapshotFile(p); err != nil {
				t.Fatal(err)
			}
			return p
		},
		"wrong gpu count": func(s *Service) string {
			other, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 4, CandidateLimit: 64})
			if err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "gpus.json")
			if err := other.SaveSnapshotFile(p); err != nil {
				t.Fatal(err)
			}
			return p
		},
		"wrong candidate limit": func(s *Service) string {
			other, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 32})
			if err != nil {
				t.Fatal(err)
			}
			p := filepath.Join(dir, "limit.json")
			if err := other.SaveSnapshotFile(p); err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	for name, makePath := range cases {
		t.Run(name, func(t *testing.T) {
			s := testService(t)
			restored, err := s.LoadSnapshotFile(makePath(s))
			if err == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
			if restored != 0 {
				t.Fatalf("corrupt snapshot restored %d entries", restored)
			}
			st := s.Stats()
			if st.SnapshotRejects != 1 {
				t.Fatalf("snapshot_rejects = %d, want 1", st.SnapshotRejects)
			}
			if st.ShapesCached != 0 || st.WarmEncoded != 0 || st.SnapshotRestored != 0 {
				t.Fatalf("rejected snapshot left partial state: %+v", st)
			}
			// Cold fallback still serves.
			if _, err := s.Query(context.Background(), Query{Shape: gemm.Shape{M: 2048, N: 8192, K: 4096}, Prim: hw.AllReduce}); err != nil {
				t.Fatalf("service cannot answer after a rejected snapshot: %v", err)
			}
		})
	}
}

// Version skew is detected from the envelope before the payload is trusted.
func TestSnapshotVersionMismatchRejected(t *testing.T) {
	src := testService(t)
	if err := src.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{{M: 2048, N: 8192, K: 4096}}, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.json")
	if err := src.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := []byte(`{"magic":"repro-warm-state","version":99` + string(raw[len(`{"magic":"repro-warm-state","version":1`):]))
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	s := testService(t)
	if _, err := s.LoadSnapshotFile(path); err == nil {
		t.Fatal("future-version snapshot accepted")
	}
	if st := s.Stats(); st.SnapshotRejects != 1 || st.ShapesCached != 0 {
		t.Fatalf("version skew left state %+v", st)
	}
}

// Saving must be atomic: the target is either the old file or the new one,
// and a save into a fresh directory leaves no temp litter.
func TestSaveSnapshotFileAtomic(t *testing.T) {
	s := testService(t)
	if err := s.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{{M: 2048, N: 8192, K: 4096}}, 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.json")
	if err := s.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshotFile(path); err != nil { // overwrite in place
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "warm.json" {
		t.Fatalf("snapshot dir holds %v, want exactly warm.json", entries)
	}
	if _, err := testService(t).LoadSnapshotFile(path); err != nil {
		t.Fatalf("re-saved snapshot does not load: %v", err)
	}
}

// sealSnapshot wraps payload in a snapshot envelope whose checksum
// matches, as SaveSnapshotFile writes one.
func sealSnapshot(payload []byte) []byte {
	return fmt.Appendf(nil, `{"magic":%q,"version":%d,"crc32":"%08x","payload":%s}`+"\n",
		snapshotMagic, SnapshotVersion, crc32.ChecksumIEEE(payload), payload)
}

// FuzzLoadSnapshotFile feeds arbitrary bytes to LoadSnapshotFile: as the
// whole file, or sealed in an envelope with a matching checksum, so that
// they reach RestoreSnapshot. It never panics: it restores or rejects, and
// a rejection changes nothing but snapshot_rejects. The seeds are a real
// snapshot and one whose checksum-valid curve repeats an X sample, which
// used to panic in stats.NewCurve and crash cmd/serve at boot.
func FuzzLoadSnapshotFile(f *testing.F) {
	src, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64})
	if err != nil {
		f.Fatal(err)
	}
	if err := src.Warm(context.Background(), []hw.Primitive{hw.AllReduce}, []gemm.Shape{{M: 2048, N: 8192, K: 4096}}, 0); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "snap.json")
	if err := src.SaveSnapshotFile(path); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	snap := src.Snapshot()
	payload, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	curve := snap.Primitives[0].Curve
	curve[1].X = curve[0].X
	dup, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, false)
	f.Add(payload, true)
	f.Add(dup, true)
	f.Add(sealSnapshot(dup), false)
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed {
			data = sealSnapshot(data)
		}
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Plat: hw.RTX4090PCIe(), NGPUs: 2, CandidateLimit: 64})
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		if _, err := s.LoadSnapshotFile(path); err == nil {
			return
		}
		after := s.Stats()
		if after.SnapshotRejects != before.SnapshotRejects+1 {
			t.Fatalf("snapshot_rejects %d after a rejection, was %d", after.SnapshotRejects, before.SnapshotRejects)
		}
		after.SnapshotRejects = before.SnapshotRejects
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("a rejected snapshot changed the service's stats:\n%+v\nwas\n%+v", after, before)
		}
		if got := s.Snapshot(); len(got.Primitives) != 0 {
			t.Fatalf("a rejected snapshot installed state: %+v", got.Primitives)
		}
	})
}
