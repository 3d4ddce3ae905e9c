package leaflet

import (
	"fmt"
	"math"
	"strconv"

	"mdtask/internal/blockstore"
	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// CoordsDigest returns the hex SHA-256 of a coordinate set's content
// (count plus every coordinate's float64 bits) — the content-addressing
// unit of Leaflet tile caching and of the jobs layer's whole-job keys
// for on-disk inputs.
func CoordsDigest(coords []linalg.Vec3) string {
	h := linalg.NewCoordHash()
	h.WriteInt(int64(len(coords)))
	h.WriteCoords(coords)
	return h.Hex()
}

// TileKey returns the content address of one tile's partial result:
// the coordinate digest, the cutoff, the edge kernel (pairwise vs.
// BallTree — both find the same edge set, but Stats count them
// differently), and the tile bounds.
func TileKey(digest string, cutoff float64, tree bool, rlo, rhi, clo, chi int) string {
	return fmt.Sprintf("leaflet-tile|%s|c=%x|tree=%t|%d:%d|%d:%d",
		digest, math.Float64bits(cutoff), tree, rlo, rhi, clo, chi)
}

// TilePartial is the cached value of one tile: its partial connected
// components and the number of edges the kernel discovered (needed so
// warm runs report the same Stats as cold ones).
type TilePartial struct {
	Comps []graph.Component
	Edges int64
}

// SizeBytes reports the payload size used for byte-budget accounting.
func (t TilePartial) SizeBytes() int64 { return graph.ComponentBytes(t.Comps) + 16 }

func tileSizeOf(v any) int64 { return v.(TilePartial).SizeBytes() }

// WithBlockCache makes the per-tile task bodies of the Parallel-CC and
// Tree-Search drivers consult store before running their edge kernel,
// keyed under the given coordinate content digest. Cache lookup
// accounting goes to m (hits skip the kernel entirely). The broadcast
// and task-API approaches ship raw edges, not per-tile partials, so
// they have no per-tile unit to cache and ignore this option.
func WithBlockCache(store *blockstore.Store, digest string, m *engine.Metrics) Option {
	return func(o *runOpts) {
		o.store = store
		o.coordsDigest = digest
		o.cacheMetrics = m
	}
}

// tilePartial computes (or recalls) one tile's partial components.
// Callers poll cancellation before invoking it: the kernel itself never
// aborts mid-tile, so any value that reaches the store is complete.
func (o runOpts) tilePartial(coords []linalg.Vec3, b block, cutoff float64, useTree bool) TilePartial {
	span := o.tracer.StartChild(o.traceParent, "leaflet.tile")
	span.SetAttr("tile", fmt.Sprintf("[%d:%d)x[%d:%d)", b.rows.lo, b.rows.hi, b.cols.lo, b.cols.hi))
	defer span.End()
	compute := func() TilePartial {
		edges := blockEdges(coords, b, cutoff, useTree)
		return TilePartial{Comps: graph.PartialComponents(edges), Edges: int64(len(edges))}
	}
	if o.store == nil || o.coordsDigest == "" {
		return compute()
	}
	key := TileKey(o.coordsDigest, cutoff, useTree, b.rows.lo, b.rows.hi, b.cols.lo, b.cols.hi)
	doSpan := o.tracer.StartChild(span.Context(), "cache.do")
	val, hit, _ := o.store.Do(key, tileSizeOf, func() (any, error) {
		return compute(), nil
	})
	doSpan.End()
	tp := val.(TilePartial)
	span.SetAttr("cache_hit", strconv.FormatBool(hit))
	if o.cacheMetrics != nil {
		if hit {
			o.cacheMetrics.AddBlockCache(1, 0, tp.SizeBytes())
		} else {
			o.cacheMetrics.AddBlockCache(0, 1, 0)
		}
	}
	return tp
}
