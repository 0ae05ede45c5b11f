// Package documentation lives in doc.go (command API, receipts,
// batch/epoch invariants, error taxonomy).
package adept2

import (
	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/model"
	"adept2/internal/monitor"
	"adept2/internal/org"
	"adept2/internal/worklist"
)

// Model layer.
type (
	// Schema is a buildtime process schema (a WSM net).
	Schema = model.Schema
	// SchemaView is the read-only schema interface shared by plain schemas
	// and biased-instance overlays.
	SchemaView = model.SchemaView
	// Builder assembles block-structured schemas from fragments.
	Builder = model.Builder
	// Fragment is a single-entry single-exit region under construction.
	Fragment = model.Fragment
	// Node is a schema node.
	Node = model.Node
	// NodeType enumerates node kinds.
	NodeType = model.NodeType
	// Edge connects schema nodes.
	Edge = model.Edge
	// DataElement is a typed process variable.
	DataElement = model.DataElement
	// DataEdge connects activity parameters to data elements.
	DataEdge = model.DataEdge
	// NodeOption customizes nodes created through the builder.
	NodeOption = model.NodeOption
)

// Node and data constants re-exported for builder call sites.
const (
	NodeActivity  = model.NodeActivity
	NodeStart     = model.NodeStart
	NodeEnd       = model.NodeEnd
	NodeANDSplit  = model.NodeANDSplit
	NodeANDJoin   = model.NodeANDJoin
	NodeXORSplit  = model.NodeXORSplit
	NodeXORJoin   = model.NodeXORJoin
	NodeLoopStart = model.NodeLoopStart
	NodeLoopEnd   = model.NodeLoopEnd

	TypeString = model.TypeString
	TypeInt    = model.TypeInt
	TypeBool   = model.TypeBool
	TypeFloat  = model.TypeFloat
)

// Builder entry points.
var (
	// NewBuilder creates a builder for version 1 of a process type.
	NewBuilder = model.NewBuilder
	// NewVersionBuilder creates a builder for an explicit version.
	NewVersionBuilder = model.NewVersionBuilder
	// WithRole assigns a staff role to an activity.
	WithRole = model.WithRole
	// WithTemplate names the reusable activity template.
	WithTemplate = model.WithTemplate
	// WithAuto marks a node as automatically executed.
	WithAuto = model.WithAuto
	// WithDuration attaches a nominal duration hint.
	WithDuration = model.WithDuration
	// WithDeadline arms a relative completion deadline when the activity
	// starts.
	WithDeadline = model.WithDeadline
	// WithEscalation names the role a timed-out activity escalates to.
	WithEscalation = model.WithEscalation
	// WithDecisionElement wires an automatic decision gateway to a data
	// element.
	WithDecisionElement = model.WithDecisionElement
	// WithMaxIterations bounds a loop.
	WithMaxIterations = model.WithMaxIterations
)

// Runtime layer.
type (
	// Instance is one running process instance.
	Instance = engine.Instance
	// CompleteOption customizes activity completion.
	CompleteOption = engine.CompleteOption
	// WorkItem is one unit of offered work.
	WorkItem = worklist.Item
	// OrgModel registers users and roles; WithOrg takes one.
	OrgModel = org.Model
	// OrgReader reads a System's organizational model (System.Org).
	OrgReader = org.Reader
	// User is an organizational agent.
	User = org.User
)

// Completion options.
var (
	// WithDecision supplies an XOR routing decision.
	WithDecision = engine.WithDecision
	// WithLoopAgain supplies a loop iteration decision.
	WithLoopAgain = engine.WithLoopAgain
)

// Change framework.
type (
	// Operation is one ADEPT2 change operation.
	Operation = change.Operation
	// SerialInsert inserts an activity between two neighbors.
	SerialInsert = change.SerialInsert
	// ParallelInsert inserts an activity parallel to a region.
	ParallelInsert = change.ParallelInsert
	// ConditionalInsert inserts an activity guarded by a condition.
	ConditionalInsert = change.ConditionalInsert
	// DeleteActivity removes an activity.
	DeleteActivity = change.DeleteActivity
	// MoveActivity shifts an activity to a new position.
	MoveActivity = change.MoveActivity
	// InsertSyncEdge adds a cross-branch ordering constraint.
	InsertSyncEdge = change.InsertSyncEdge
	// DeleteSyncEdge removes a sync edge.
	DeleteSyncEdge = change.DeleteSyncEdge
	// UpdateStaffAssignment changes the role of an activity.
	UpdateStaffAssignment = change.UpdateStaffAssignment
	// AddDataElement declares a new data element.
	AddDataElement = change.AddDataElement
	// AddDataEdge connects a parameter to a data element.
	AddDataEdge = change.AddDataEdge
	// DeleteDataEdge removes a data edge.
	DeleteDataEdge = change.DeleteDataEdge
)

// Evolution layer.
type (
	// MigrationReport summarizes one schema evolution (paper Fig. 3).
	MigrationReport = evolution.Report
	// InstanceResult is one row of a migration report.
	InstanceResult = evolution.InstanceResult
	// Outcome classifies a migration result.
	Outcome = evolution.Outcome
	// EvolveOptions tunes a migration run: its one setting is the
	// compliance check. A migrated instance's state adapts one way, by
	// incremental state adaptation, on GOMAXPROCS workers.
	EvolveOptions = evolution.Options
	// CheckMode selects fast conditions vs. history replay.
	CheckMode = evolution.CheckMode
)

// Migration outcome and mode constants.
const (
	Migrated           = evolution.Migrated
	AlreadyFinished    = evolution.AlreadyFinished
	StateConflict      = evolution.StateConflict
	StructuralConflict = evolution.StructuralConflict
	SemanticConflict   = evolution.SemanticConflict
	MigrationFailed    = evolution.Failed

	FastCheck   = evolution.FastCheck
	ReplayCheck = evolution.ReplayCheck
)

// Monitoring helpers.
var (
	// RenderSchema renders a schema as text.
	RenderSchema = monitor.RenderSchema
	// RenderInstance renders an instance marking as text.
	RenderInstance = monitor.RenderInstance
	// FormatReport renders a migration report (Fig. 3 style).
	FormatReport = monitor.FormatReport
)
