package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"hidestore/internal/backend"
	"hidestore/internal/bufpool"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/fp"
	"hidestore/internal/index"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/rewrite"
)

// The per-layer pass drives each layer's public functions over the same
// materialized bytes the engine rounds use, on one goroutine, one span per
// call batch. It is a ceiling for each layer in isolation, not a second
// engine: the sum of the rows against the engine's wall time is the
// "unattributed" figure.

// segmentChunks is the classification batch, the baseline engine's default.
const segmentChunks = 1024

// idealBase keeps the IDs of the restore-side containers apart from the
// backup-side ones on the same backend.
const idealBase = 1 << 24

// placer decides which container the next stored chunk goes to, the way both
// engines do: a fresh container once the open one has no room.
type placer struct {
	cid  container.ID
	free int
}

func (p *placer) place(size int) container.ID {
	if size > p.free {
		p.cid++
		p.free = container.DefaultCapacity
	}
	p.free -= size
	return p.cid
}

// seal closes the open container, as the engines do at the end of a version.
func (p *placer) seal() { p.free = 0 }

// policy is one engine's classification stage: an index, for the baseline a
// rewriter, and the placement of what they decide to store.
type policy struct {
	indexSpan   string
	ix          index.Index
	rewriteSpan string
	rw          rewrite.Rewriter // nil for HiDeStore
	placer      placer
}

func newPolicies() (hide, base *policy, err error) {
	ix, err := ddfs.New(ddfs.Options{})
	if err != nil {
		return nil, nil, err
	}
	rw, err := rewrite.New("capping")
	if err != nil {
		return nil, nil, err
	}
	hide = &policy{indexSpan: "core.index", ix: core.NewIndexView(0)}
	base = &policy{indexSpan: "index.ddfs", ix: ix, rewriteSpan: "rewrite.capping", rw: rw}
	return hide, base, nil
}

// classify runs one version's chunks through the policy in segments and
// returns, per chunk, whether it is stored and in which container it lives.
func (p *policy) classify(tr *tracer, refs []index.ChunkRef) (store []bool, cids []container.ID, err error) {
	store = make([]bool, len(refs))
	cids = make([]container.ID, len(refs))
	placed := make(map[fp.FP]container.ID) // this version's stored chunks
	for lo := 0; lo < len(refs); lo += segmentChunks {
		hi := min(lo+segmentChunks, len(refs))
		seg := refs[lo:hi]
		sp := tr.begin(p.indexSpan)
		results := p.ix.Dedup(seg)
		tr.end(sp, 0)

		var view []rewrite.Chunk
		plan := make([]bool, len(seg))
		if p.rw != nil {
			view = make([]rewrite.Chunk, len(seg))
			for i, c := range seg {
				view[i] = rewrite.Chunk{FP: c.FP, Size: c.Size, Duplicate: results[i].Duplicate, CID: results[i].CID}
			}
			sp = tr.begin(p.rewriteSpan)
			plan = p.rw.Plan(view)
			tr.end(sp, 0)
		}
		for i, c := range seg {
			switch {
			case !results[i].Duplicate || plan[i]:
				store[lo+i] = true
				cids[lo+i] = p.placer.place(int(c.Size))
				placed[c.FP] = cids[lo+i]
			case results[i].CID != 0:
				cids[lo+i] = results[i].CID
			default: // duplicate of a chunk stored earlier in this version
				cid, ok := placed[c.FP]
				if !ok {
					return nil, nil, fmt.Errorf("%s: pending duplicate %s has no placement", p.indexSpan, c.FP.Short())
				}
				cids[lo+i] = cid
			}
		}
		sp = tr.begin(p.indexSpan)
		p.ix.Commit(seg, cids[lo:hi])
		tr.end(sp, 0)
		if p.rw != nil {
			sp = tr.begin(p.rewriteSpan)
			p.rw.Committed(view, cids[lo:hi])
			tr.end(sp, 0)
		}
	}
	sp := tr.begin(p.indexSpan)
	p.ix.EndVersion()
	tr.end(sp, 0)
	if p.rw != nil {
		p.rw.EndVersion()
	}
	p.placer.seal()
	return store, cids, nil
}

// packer fills containers in placement order and writes each sealed one to
// the backend. With a tracer each write is a backend.put span.
type packer struct {
	be      backend.Backend
	tr      *tracer
	open    *container.Container
	written []container.ID
	payload int64 // chunk bytes added
	blob    int64 // marshalled bytes written
}

func (p *packer) add(ctx context.Context, cid container.ID, f fp.FP, data []byte) error {
	if p.open != nil && p.open.ID() != cid {
		if err := p.seal(ctx); err != nil {
			return err
		}
	}
	if p.open == nil {
		p.open = container.New(cid)
	}
	err := p.open.Add(f, data)
	if errors.Is(err, container.ErrDuplicate) {
		// Stored twice within one segment, or a rewritten duplicate whose
		// copy is already here; the engines reference the first copy too.
		return nil
	}
	if err == nil {
		p.payload += int64(len(data))
	}
	return err
}

func (p *packer) seal(ctx context.Context) error {
	if p.open == nil {
		return nil
	}
	id := p.open.ID()
	buf, err := p.open.MarshalBinary()
	if err != nil {
		return err
	}
	p.open = nil
	sp := p.tr.begin("backend.put")
	err = p.be.Put(ctx, backend.ContainerName(id), buf)
	p.tr.end(sp, int64(len(buf)))
	p.written = append(p.written, id)
	p.blob += int64(len(buf))
	return err
}

// unpackFetcher is the restore side's container read: a backend.get span
// inside a container.unpack span.
type unpackFetcher struct {
	be       backend.Backend
	tr       *tracer
	unpacked int64
}

func (f *unpackFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	sp := f.tr.begin("container.unpack")
	get := f.tr.begin("backend.get")
	buf, err := f.be.Get(ctx, backend.ContainerName(id))
	f.tr.end(get, int64(len(buf)))
	if err != nil {
		return nil, err
	}
	f.unpacked += int64(len(buf))
	c, err := container.UnmarshalBinary(buf)
	f.tr.end(sp, int64(len(buf)))
	return c, err
}

// layerCounts are the exact counts of one layer round; they repeat from
// round to round.
type layerCounts struct {
	chunks      int
	logical     int64
	coreDups    uint64 // chunks core.IndexView classified as duplicates
	packed      int64  // chunk bytes the workload's own policy stored
	written     int64  // container bytes put for them
	unpacked    int64  // container bytes read back on the restore side
	recipeBytes int64
	idealReads  uint64
	failed      int // restores whose bytes differed from the source
}

// layerRound runs the whole chain through every layer once, as one
// round.layers root span. dir is an empty directory for the backend.
func layerRound(ctx context.Context, tr *tracer, b bench, streams [][]byte, dir string) (layerCounts, error) {
	var lc layerCounts
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lc, err
	}
	defer os.RemoveAll(dir)
	be, err := b.layerBackend(dir)
	if err != nil {
		return lc, err
	}
	hide, base, err := newPolicies()
	if err != nil {
		return lc, err
	}
	own := hide
	if b.baseline {
		own = base
	}
	params := chunker.DefaultParams()
	pool := bufpool.New(params.Max)
	recipes := backend.NewRecipeStore(be)
	pack := &packer{be: be, tr: tr}
	fetch := &unpackFetcher{be: be, tr: tr}
	faa := restorecache.NewFAA(0)
	ideal := placer{cid: idealBase}

	// An error aborts the run, so error paths leave their spans open.
	root := tr.beginRound("layers")
	for v, data := range streams {
		size := int64(len(data))
		lc.logical += size

		// chunker: the product default algorithm, pooled as in the engines.
		sp := tr.begin("chunker.scan")
		ck, err := chunker.NewPooled(chunker.TTTD, bytes.NewReader(data), params, pool)
		if err != nil {
			return lc, err
		}
		var chunks [][]byte
		for {
			c, err := ck.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return lc, err
			}
			chunks = append(chunks, c)
		}
		tr.end(sp, size)
		lc.chunks += len(chunks)

		sp = tr.begin("fp.hash")
		refs := make([]index.ChunkRef, len(chunks))
		for i, c := range chunks {
			refs[i] = index.ChunkRef{FP: fp.Of(c), Size: uint32(len(c))}
		}
		tr.end(sp, size)

		// Both engines' classification runs on every workload, so each row
		// of the report shows both on identical bytes; only the workload's
		// own policy decides what is packed.
		var store []bool
		var cids []container.ID
		for _, p := range []*policy{hide, base} {
			s, c, err := p.classify(tr, refs)
			if err != nil {
				return lc, err
			}
			if p == own {
				store, cids = s, c
			}
		}

		sp = tr.begin("container.pack")
		rcp := recipe.New(v + 1)
		for i, c := range chunks {
			if store[i] {
				if err := pack.add(ctx, cids[i], refs[i].FP, c); err != nil {
					return lc, err
				}
			}
			rcp.Append(refs[i].FP, refs[i].Size, int32(cids[i]))
		}
		err = pack.seal(ctx)
		tr.end(sp, 0)
		if err != nil {
			return lc, err
		}

		sp = tr.begin("recipe.encode")
		err = recipes.Put(rcp)
		tr.end(sp, int64(rcp.SizeBytes()))
		if err != nil {
			return lc, err
		}
		lc.recipeBytes += int64(rcp.SizeBytes())

		// Restore side. The ceiling is a perfectly sequential layout: this
		// version's chunks packed in stream order into containers of their
		// own, read back once each.
		sp = tr.begin("restore.prep")
		seq := &packer{be: be}
		seen := make(map[fp.FP]container.ID, len(chunks))
		entries := make([]recipe.Entry, len(chunks))
		for i, c := range chunks {
			cid, ok := seen[refs[i].FP]
			if !ok {
				cid = ideal.place(len(c))
				seen[refs[i].FP] = cid
				if err := seq.add(ctx, cid, refs[i].FP, c); err != nil {
					return lc, err
				}
			}
			entries[i] = recipe.Entry{FP: refs[i].FP, Size: refs[i].Size, CID: int32(cid)}
			pool.Release(c)
		}
		ideal.seal()
		err = seq.seal(ctx)
		tr.end(sp, 0)
		if err != nil {
			return lc, err
		}

		sp = tr.begin("recipe.decode")
		_, err = recipes.Get(v + 1)
		tr.end(sp, int64(rcp.SizeBytes()))
		if err != nil {
			return lc, err
		}

		sink := &compareSink{want: data}
		sp = tr.begin("restorecache.assemble")
		stats, err := faa.Restore(ctx, entries, fetch, sink)
		tr.end(sp, size)
		if err != nil {
			return lc, err
		}
		if !sink.ok() {
			lc.failed++
			fmt.Fprintf(os.Stderr, "%s: layer restore v%d differs from the source\n", b.name, v+1)
		}
		lc.idealReads += stats.ContainerReads

		sp = tr.begin("restore.prep")
		for _, id := range seq.written {
			if err := be.Delete(ctx, backend.ContainerName(id)); err != nil {
				return lc, err
			}
		}
		tr.end(sp, 0)
	}
	for _, id := range pack.written {
		sp := tr.begin("backend.delete")
		err := be.Delete(ctx, backend.ContainerName(id))
		tr.end(sp, 0)
		if err != nil {
			return lc, err
		}
	}
	tr.end(root, 0)
	lc.coreDups = hide.ix.Stats().Duplicates
	lc.packed, lc.written, lc.unpacked = pack.payload, pack.blob, fetch.unpacked
	return lc, nil
}
