package dynserve

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/dynmon"
)

// TestConcurrentBufferedCacheHitsShareResultBytes sends concurrent
// buffered-JSON cache hits for one digest whose cached result slice has
// spare capacity.  Every response must be the result plus one newline, and
// serving must never write into the shared bytes (the race detector flags
// a trailing newline appended in place).
func TestConcurrentBufferedCacheHitsShareResultBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	spec := goldenSpec(t, "mesh-9x9-minimum.json")
	fs, err := dynmon.ParseFileSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := fs.Digest()
	if err != nil {
		t.Fatal(err)
	}
	result := []byte(`{"rounds":1}`)
	cached := make([]byte, len(result), len(result)+64)
	copy(cached, result)
	srv.results.Put(digest, &cachedResult{json: cached})

	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(spec))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Accept", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Header.Get("X-Dynmond-Cache") != "hit" || string(body) != string(result)+"\n" {
				t.Errorf("cache hit served %q (cache %q)", body, resp.Header.Get("X-Dynmond-Cache"))
			}
		}()
	}
	wg.Wait()
}
