package fault

import (
	"reflect"
	"testing"
)

// TestStatsAddSumsEveryField sets every field of two Stats to distinct
// values through reflection and checks Add summed each one, so a field
// added to Stats later cannot be silently dropped from the totals.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Int64:
			va.Field(i).SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Float64:
			va.Field(i).SetFloat(float64(i+1) / 2)
			vb.Field(i).SetFloat(float64(100 * (i + 1)))
		default:
			t.Fatalf("Stats.%s has kind %s; teach this test and Add about it",
				va.Type().Field(i).Name, va.Field(i).Kind())
		}
	}
	sum := a
	sum.Add(b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		name := vs.Type().Field(i).Name
		switch vs.Field(i).Kind() {
		case reflect.Int64:
			if got, want := vs.Field(i).Int(), va.Field(i).Int()+vb.Field(i).Int(); got != want {
				t.Errorf("Add dropped %s: got %d, want %d", name, got, want)
			}
		case reflect.Float64:
			if got, want := vs.Field(i).Float(), va.Field(i).Float()+vb.Field(i).Float(); got != want {
				t.Errorf("Add dropped %s: got %g, want %g", name, got, want)
			}
		}
	}
}
