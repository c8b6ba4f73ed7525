package schedroute

import (
	"reflect"
	"testing"

	"schedroute/internal/schedule"
)

// solverFieldOf names the schedule.Options field a wire Options field
// drives: the same name, except for the one documented alias —
// `"stats": true` and `"collect_stats": true` both set CollectStats.
func solverFieldOf(wire string) string {
	if wire == "Stats" {
		return "CollectStats"
	}
	return wire
}

// TestWireOptionsMapToSolverOptions is the drift contract between the
// wire Options and schedule.Options: every wire field names a solver
// field, and every solver field is reachable from the wire unless it is
// a declared solver-only one. A field added or renamed on either side
// fails here.
func TestWireOptionsMapToSolverOptions(t *testing.T) {
	wire := reflect.TypeOf(Options{})
	solver := reflect.TypeOf(schedule.Options{})
	reached := map[string]bool{}
	for i := 0; i < wire.NumField(); i++ {
		name := solverFieldOf(wire.Field(i).Name)
		if _, ok := solver.FieldByName(name); !ok {
			t.Errorf("wire Options field %s has no schedule.Options field %s", wire.Field(i).Name, name)
		}
		reached[name] = true
	}
	// The service owns worker counts, tenant shares and tracing, so
	// these deliberately have no wire spelling.
	solverOnly := map[string]bool{"Procs": true, "LinkCap": true, "Trace": true}
	for i := 0; i < solver.NumField(); i++ {
		name := solver.Field(i).Name
		if !reached[name] && !solverOnly[name] {
			t.Errorf("schedule.Options field %s has no wire Options field and is not a declared solver-only field", name)
		}
	}
}

// TestToScheduleSetsExactlyTheNamedField sets one wire field at a time
// and requires ToSchedule to move exactly the solver field it names, so
// the resolver can neither drop a field nor cross two.
func TestToScheduleSetsExactlyTheNamedField(t *testing.T) {
	wire := reflect.TypeOf(Options{})
	for i := 0; i < wire.NumField(); i++ {
		f := wire.Field(i)
		var o Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(1.5)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString("exact") // Engine is the only string field
		default:
			t.Fatalf("wire Options field %s has unhandled kind %s", f.Name, f.Type.Kind())
		}
		got, err := o.ToSchedule()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		gv := reflect.ValueOf(got)
		for j := 0; j < gv.NumField(); j++ {
			name := gv.Type().Field(j).Name
			if set := !gv.Field(j).IsZero(); set != (name == solverFieldOf(f.Name)) {
				t.Errorf("wire %s set: solver field %s non-zero = %t", f.Name, name, set)
			}
		}
	}
}
