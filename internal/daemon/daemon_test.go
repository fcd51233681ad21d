package daemon

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// assertNoTemp fails if a WriteFileAtomic temp file is left in dir.
func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// assertFile fails unless path holds exactly want.
func assertFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("%s = %q, want %q", path, got, want)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, blob := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, []byte(blob)); err != nil {
			t.Fatal(err)
		}
		assertFile(t, path, blob)
	}
	assertNoTemp(t, dir)
}

// TestWriteFileAtomicFailures injects a failure at create, write and
// rename: each time the previous file stays byte-identical and no temp
// file is left.
func TestWriteFileAtomicFailures(t *testing.T) {
	t.Run("create", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := WriteFileAtomic(path, []byte("previous")); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir, 0o755)
		if f, err := os.CreateTemp(dir, "probe-*"); err == nil {
			// Permission checks do not bind this user (root): fail the
			// create the way a read-only directory would.
			_ = f.Close()
			_ = os.Remove(f.Name())
			createTemp = func(string, string) (*os.File, error) { return nil, fs.ErrPermission }
			defer func() { createTemp = os.CreateTemp }()
		}
		if err := WriteFileAtomic(path, []byte("next")); err == nil {
			t.Fatal("write into a read-only directory succeeded")
		}
		assertFile(t, path, "previous")
		assertNoTemp(t, dir)
	})
	t.Run("write", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := WriteFileAtomic(path, []byte("previous")); err != nil {
			t.Fatal(err)
		}
		// The temp file comes back open read-only, so the write fails.
		createTemp = func(dir, pattern string) (*os.File, error) {
			f, err := os.CreateTemp(dir, pattern)
			if err != nil {
				return nil, err
			}
			_ = f.Close()
			return os.Open(f.Name())
		}
		defer func() { createTemp = os.CreateTemp }()
		if err := WriteFileAtomic(path, []byte("next")); err == nil || !strings.Contains(err.Error(), "writing") {
			t.Fatalf("write failure not reported: %v", err)
		}
		assertFile(t, path, "previous")
		assertNoTemp(t, dir)
	})
	t.Run("rename", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, []byte("next")); err == nil || !strings.Contains(err.Error(), "publishing") {
			t.Fatalf("rename onto a non-empty directory not reported: %v", err)
		}
		if fi, err := os.Stat(filepath.Join(path, "keep")); err != nil || !fi.IsDir() {
			t.Errorf("the directory in the way changed: %v", err)
		}
		assertNoTemp(t, dir)
	})
}

func TestLoadJSON(t *testing.T) {
	dir := t.TempDir()
	type file struct {
		Version int    `json:"version"`
		Name    string `json:"name"`
	}
	var got file
	if err := LoadJSON(filepath.Join(dir, "absent"), 1, &got); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	path := filepath.Join(dir, "f.json")
	if err := SaveJSON(path, file{Version: 2, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	assertFile(t, path, "{\n \"version\": 2,\n \"name\": \"x\"\n}")
	if err := LoadJSON(path, 2, &got); err != nil || got.Name != "x" {
		t.Fatalf("LoadJSON = %+v, %v", got, err)
	}
	if err := LoadJSON(path, 1, &got); err == nil || !strings.Contains(err.Error(), "has version 2, want 1") {
		t.Errorf("version mismatch: %v", err)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(path, 1, &got); err == nil || !strings.Contains(err.Error(), "corrupt checkpoint "+path) {
		t.Errorf("corrupt file: %v", err)
	}
}

func TestEveryStopsWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ticks := make(chan struct{}, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Every(ctx, time.Millisecond, func() { ticks <- struct{}{} })
	}()
	<-ticks
	<-ticks
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Every did not return after cancel")
	}
}

func TestGet(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ok" {
			http.Error(w, "nope", http.StatusNotFound)
			return
		}
		_, _ = io.WriteString(w, "body\n")
	}))
	defer srv.Close()
	var got string
	err := Get(context.Background(), srv.Client(), srv.URL+"/ok", func(r io.Reader) error {
		b, err := io.ReadAll(r)
		got = string(b)
		return err
	})
	if err != nil || got != "body\n" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	err = Get(context.Background(), srv.Client(), srv.URL+"/missing", nil)
	if StatusCode(err) != http.StatusNotFound || err.Error() != srv.URL+"/missing: HTTP 404: nope" {
		t.Fatalf("404: %v (code %d)", err, StatusCode(err))
	}
	if StatusCode(errors.New("other")) != 0 {
		t.Error("StatusCode of a non-status error")
	}
}

func TestServer(t *testing.T) {
	var off *Server
	if off.Addr() != "" || off.Shutdown(context.Background()) != nil || off.Close() != nil {
		t.Fatal("the disabled server is not inert")
	}
	s, err := ListenAndServe("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]int{"a": 1})
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(s.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "{\n \"a\": 1\n}\n" || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("WriteJSON reply %q (%s)", body, resp.Header.Get("Content-Type"))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := Listen(s.Addr()); err != nil {
		t.Errorf("address still held after Shutdown: %v", err)
	}
}
