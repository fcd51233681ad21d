// Package daemon is the chassis the long-running services (harvestd,
// harvestagg, rolloutd, fleetwatch) share: the atomic checkpoint file, the
// API listener and JSON encoder, the ticker loop, the GET a puller makes
// and the command lifecycle. It supplies parts, not an order — each service
// keeps its own Start and Shutdown sequence — and reads no clock: time
// flows through each service's injected Config.Clock.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// createTemp is os.CreateTemp; the failure-injection test swaps it.
var createTemp = os.CreateTemp

// WriteFileAtomic replaces path with blob so that a crash at any point
// leaves the previous file or the new one: write a temp file in the same
// directory, fsync, close, rename it over path, then fsync the directory so
// the rename itself is durable. The temp file is removed on every error.
func WriteFileAtomic(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := createTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	fail := func(step string, err error) error {
		_ = tmp.Close() // already closed after a failed rename: harmless
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("%s: %w", step, err)
	}
	if _, err := tmp.Write(blob); err != nil {
		return fail("writing", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("closing", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail("publishing", err)
	}
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		_ = d.Close() // read-only handle
	}
	if err != nil {
		return fmt.Errorf("syncing directory: %w", err)
	}
	return nil
}

// SaveJSON writes v to path with WriteFileAtomic as one-space indented
// JSON, the checkpoint format of every service.
func SaveJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encoding: %w", err)
	}
	return WriteFileAtomic(path, blob)
}

// LoadJSON decodes the file at path into v once its top-level "version"
// equals version. A missing file comes back unwrapped, so
// errors.Is(err, fs.ErrNotExist) tells a first run from a fault.
func LoadJSON(path string, version int, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		return fmt.Errorf("corrupt checkpoint %s: %w", path, err)
	}
	if head.Version != version {
		return fmt.Errorf("checkpoint %s has version %d, want %d", path, head.Version, version)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("corrupt checkpoint %s: %w", path, err)
	}
	return nil
}

// Checkpointer is one service's checkpoint file: resume at start, a timer,
// the POST /checkpoint endpoint and the final write, each called where the
// service's own Start and Shutdown put it. An empty Path turns all four off.
type Checkpointer struct {
	Path     string
	Interval time.Duration
	Save     func() error
	Name     string // log prefix
	Logf     func(format string, args ...any)
}

// Resume calls load and logs what it restored ("3 policies"); a missing
// file is a first run, not an error.
func (c *Checkpointer) Resume(load func() (restored string, err error)) error {
	if c.Path == "" {
		return nil
	}
	what, err := load()
	switch {
	case err == nil:
		c.Logf("%s: resumed %s from %s", c.Name, what, c.Path)
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("loading checkpoint: %w", err)
	}
	return nil
}

// StartTimer saves every Interval on a goroutine counted in wg until ctx is
// done, logging failures.
func (c *Checkpointer) StartTimer(ctx context.Context, wg *sync.WaitGroup) {
	if c.Path == "" {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		Every(ctx, c.Interval, func() {
			if err := c.Save(); err != nil {
				c.Logf("%s: checkpoint failed: %v", c.Name, err)
			}
		})
	}()
}

// Final writes the shutdown checkpoint.
func (c *Checkpointer) Final() error {
	if c.Path == "" {
		return nil
	}
	if err := c.Save(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	return nil
}

// ServeHTTP is POST /checkpoint: write a checkpoint now.
func (c *Checkpointer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method != http.MethodPost:
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
	case c.Path == "":
		http.Error(w, "checkpointing disabled", http.StatusConflict)
	default:
		if err := c.Save(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "checkpointed to %s\n", c.Path)
	}
}
