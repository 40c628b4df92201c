package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/digest"
	"edgeauth/internal/edge"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
)

// pageSize is the storage page (the paper's |B|).
const pageSize = 4096

// deployment is one central server, one edge server and a set of
// clients, all in this process and talking over loopback TCP.
type deployment struct {
	srv     *central.Server
	eg      *edge.Server
	clients []*client.Client
	walDir  string
	serving sync.WaitGroup

	// commitCtr counts the central accumulator's hash and combine
	// operations (central.Options.AccParams.Counters).
	commitCtr *digest.Counters

	setup          time.Duration // key + AddTable + PullAll + dial + key fetch
	build, install time.Duration // AddTable, PullAll
}

// deploy builds the table at the central, replicates it to the edge and
// connects nClients verifying clients. The WAL lives under walRoot,
// inside the checkout.
func deploy(ctx context.Context, w workload, tuples []schema.Tuple, nClients int, walRoot string, tr *tracer) (*deployment, error) {
	d := &deployment{commitCtr: new(digest.Counters)}
	var err error
	if d.walDir, err = os.MkdirTemp(walRoot, "wal-"); err != nil {
		return nil, fmt.Errorf("creating WAL dir: %w", err)
	}
	acc := digest.DefaultParams()
	acc.Counters = d.commitCtr

	t0 := time.Now()
	d.srv, err = central.NewServer(central.Options{
		Scheme:    sig.SchemeEd25519,
		PageSize:  pageSize,
		AccParams: acc,
		WALDir:    d.walDir,
		Shards:    w.shards,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("starting central: %w", err)
	}
	tb := time.Now()
	if err := d.srv.AddTable(benchSchema(), tuples); err != nil {
		d.close()
		return nil, fmt.Errorf("AddTable: %w", err)
	}
	te := time.Now()
	d.build = te.Sub(tb)
	tr.record(0, 0, "central.build", tb, te)

	cLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	centralAddr := cLn.Addr().String()
	d.serve(func() { d.srv.Serve(cLn) })

	d.eg = edge.New(centralAddr)
	ti := time.Now()
	if err := d.eg.PullAll(ctx); err != nil {
		d.close()
		return nil, fmt.Errorf("edge PullAll: %w", err)
	}
	te = time.Now()
	d.install = te.Sub(ti)
	tr.record(0, 0, "edge.install", ti, te)

	eLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	edgeAddr := eLn.Addr().String()
	d.serve(func() { d.eg.Serve(eLn) })

	for i := 0; i < nClients; i++ {
		cl, err := client.Dial(ctx, client.Config{EdgeAddr: edgeAddr, CentralAddr: centralAddr})
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, cl)
		if err := cl.FetchTrustedKey(ctx); err != nil {
			d.close()
			return nil, fmt.Errorf("fetching trusted key: %w", err)
		}
	}
	d.setup = time.Since(t0)
	return d, nil
}

func (d *deployment) serve(fn func()) {
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		fn()
	}()
}

// close stops every server goroutine, waits for them and removes the WAL.
func (d *deployment) close() error {
	for _, cl := range d.clients {
		cl.Close()
	}
	var errs []error
	if d.eg != nil {
		if err := d.eg.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if d.srv != nil {
		if err := d.srv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	d.serving.Wait()
	if d.walDir != "" {
		if err := os.RemoveAll(d.walDir); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("tearing down: %v", errs)
	}
	return nil
}

// walBytes is the total size of the files in the WAL directory.
func (d *deployment) walBytes() (int64, error) {
	var n int64
	err := filepath.Walk(d.walDir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
