package main

import (
	"context"
	"fmt"

	"adept2"
	"adept2/internal/rpc"
)

// door is the front a workload's client drives: the in-process façade or
// the networked command plane. One client, closed loop — every call waits
// for its reply.
type door interface {
	// submit returns once the command is durable.
	submit(cmd adept2.Command) (any, error)
	// stage returns once the command is applied; the waiter resolves at
	// durability.
	stage(cmd adept2.Command) (waiter, error)
	batch(cmds []adept2.Command) error
	// worklist reads the user's first worklist page and returns its length.
	worklist(user string) (int, error)
}

type waiter interface {
	Wait(ctx context.Context) error
}

var ctx = context.Background()

const (
	window   = 64 // commands per pipelined window and per batch
	pageSize = 50 // work items per worklist read
)

type localDoor struct{ sys *adept2.System }

func (d localDoor) submit(cmd adept2.Command) (any, error)   { return d.sys.Submit(ctx, cmd) }
func (d localDoor) stage(cmd adept2.Command) (waiter, error) { return d.sys.SubmitAsync(ctx, cmd) }
func (d localDoor) batch(cmds []adept2.Command) error {
	_, err := d.sys.SubmitBatch(ctx, cmds)
	return err
}
func (d localDoor) worklist(user string) (int, error) {
	items, _ := d.sys.WorkItemsPage(user, "", pageSize)
	return len(items), nil
}

type remoteDoor struct{ cli *rpc.Client }

func (d remoteDoor) submit(cmd adept2.Command) (any, error)   { return d.cli.Submit(ctx, cmd) }
func (d remoteDoor) stage(cmd adept2.Command) (waiter, error) { return d.cli.SubmitAsync(ctx, cmd) }
func (d remoteDoor) batch(cmds []adept2.Command) error {
	_, err := d.cli.SubmitBatch(ctx, cmds)
	return err
}
func (d remoteDoor) worklist(user string) (int, error) {
	page, err := d.cli.WorkItems(ctx, user, "", pageSize)
	if err != nil {
		return 0, err
	}
	return len(page.Items), nil
}

// outcomeCounts reads an Evolve reply from either door into a histogram
// keyed by outcome name.
func outcomeCounts(res any) (map[string]int, error) {
	switch r := res.(type) {
	case *adept2.MigrationReport:
		h := map[string]int{}
		for _, row := range r.Results {
			h[row.Outcome.String()]++
		}
		return h, nil
	case *rpc.SubmitResult:
		if r.Result == nil || r.Result.Report == nil {
			return nil, fmt.Errorf("evolve reply carries no report")
		}
		return r.Result.Report.Outcomes, nil
	}
	return nil, fmt.Errorf("evolve reply of type %T", res)
}
