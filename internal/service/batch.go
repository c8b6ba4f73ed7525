package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"schedroute/internal/errkind"
	"schedroute/internal/parallel"
	"schedroute/pkg/schedroute"
)

// maxBatchItems bounds one /v1/schedule:batch request; beyond it the
// client should split, not the server buffer.
const maxBatchItems = 1024

// batchGroup is one unique sub-request: items with identical problem,
// options, and omega flag share a single solve and a single encoded
// result object.
type batchGroup struct {
	req   schedroute.ScheduleRequest
	items []int // indices into the request's Items
	out   *schedroute.ScheduleResult
	err   error
}

// batch is POST /v1/schedule:batch, a grouped fan-out. Items are
// grouped by their full sub-request identity (tenant + StructureKey +
// period + options + omega flag); the solver cache underneath
// guarantees one structure build per distinct StructureKey, and the
// grouping one solve per identical sub-request, however large the
// batch. The tenant belongs in the key because an admitted tenant's
// item is answered from its admitted standing, not a fresh solve — two
// tenants naming the same problem must not share one result object.
// Unique groups run in parallel on borrowed idle worker slots, the same
// discipline as the sweep, each solve climbing on one goroutine; the
// response is encoded in one pass.
func (s *Server) batch(c *call, req schedroute.BatchScheduleRequest) (*schedroute.BatchScheduleResult, error) {
	if err := schedroute.CheckSchemaVersion(req.SchemaVersion); err != nil {
		return nil, err
	}
	if len(req.Items) == 0 || len(req.Items) > maxBatchItems {
		return nil, errkind.BadInput("batch: %d items out of range [1,%d]", len(req.Items), maxBatchItems)
	}
	if err := c.queue(); err != nil {
		return nil, err
	}
	defer s.release()

	ctx := c.r.Context()
	groups := make([]*batchGroup, 0, len(req.Items))
	index := map[string]*batchGroup{}
	for i, item := range req.Items {
		key := item.Problem.StructureKey()
		ob, _ := json.Marshal(item.Options)
		ten := schedroute.TenantOrDefault(item.Tenant)
		gk := fmt.Sprintf("tenant=%s/%d/%g|%s|tauin=%g|omega=%t|opts=%s",
			ten.ID, ten.Priority, ten.RateGuarantee,
			key, item.Problem.TauIn, item.IncludeOmega, ob)
		g := index[gk]
		if g == nil {
			g = &batchGroup{req: item}
			index[gk] = g
			groups = append(groups, g)
		}
		g.items = append(g.items, i)
	}

	extra, releaseExtra := s.claimExtraWorkers(s.cfg.Workers - 1)
	ferr := parallel.ForEach(ctx, len(groups), 1+extra, func(gi int) error {
		g := groups[gi]
		// A group is a call of its own (untraced, unlogged) through the
		// body of a standalone /v1/schedule, on the batch's slot; its
		// error stays on the group, so siblings keep running.
		gc := &call{s: s, r: c.r, procs: 1} // the groups already fill the slots
		ten, err := gc.tenant(g.req.Tenant, g.req.Problem)
		if err == nil {
			g.out, err = s.scheduleOne(gc, ten, g.req)
		}
		g.err = err
		return nil
	})

	items := make([]schedroute.BatchItemResult, len(req.Items))
	for _, g := range groups {
		err := g.err
		if err == nil && g.out == nil {
			// The fan-out itself stopped (context canceled) before this
			// group ran; report the capacity condition, not silence.
			err = ferr
			if err == nil {
				err = errors.New("batch: group not executed")
			}
		}
		if err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			err = errkind.Mark(err, errkind.ErrUnavailable)
		}
		for _, i := range g.items {
			items[i] = schedroute.BatchItemResult{Index: i, Result: g.out}
			if err != nil {
				items[i].Result = nil
				items[i].SetError(err)
			}
		}
	}
	releaseExtra()
	s.metrics.add(mBatchItems, int64(len(req.Items)))
	return &schedroute.BatchScheduleResult{SchemaVersion: schedroute.SchemaVersion, Items: items}, nil
}
