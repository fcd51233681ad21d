package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Main is a command's main: it calls run with a context SIGINT and SIGTERM
// cancel, the command line and stdout, and on error prints "name: err" to
// stderr and exits 1.
func Main(name string, run func(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, nil)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// ParseFlags parses args into fs and refuses positional arguments.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return nil
}

// Logf returns a log function writing one line per call to w.
func Logf(w io.Writer) func(format string, args ...any) {
	return func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
}

// Service is what a daemon command runs.
type Service interface {
	Start(ctx context.Context) error
	URL() string
	Shutdown(ctx context.Context) error
}

// ShutdownTimeout bounds a command's graceful shutdown.
const ShutdownTimeout = 15 * time.Second

// Run is a daemon command's serve phase: start svc, print "name: doing on
// URL" (unless doing is ""), send the URL on ready when it is non-nil — the
// hook tests use to drive a command in-process — wait for ctx to end, print
// "name: shutting down" and stop svc within ShutdownTimeout.
func Run(ctx context.Context, svc Service, name, doing string, stdout io.Writer, ready chan<- string) error {
	if err := svc.Start(ctx); err != nil {
		return err
	}
	if doing != "" {
		fmt.Fprintf(stdout, "%s: %s on %s\n", name, doing, svc.URL())
	}
	if ready != nil {
		ready <- svc.URL()
	}
	<-ctx.Done()
	fmt.Fprintf(stdout, "%s: shutting down\n", name)
	sctx, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
	defer cancel()
	return svc.Shutdown(sctx)
}
