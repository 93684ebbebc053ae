package kosr

import "reflect"

// kappaFlows is the number of max-flow runs the searcher's κ engine has made.
// graph.FlowScratch keeps that count unexported, for graph's own schedule
// tests; reading it here needs no production accessor.
func (s *Searcher) kappaFlows() int {
	return int(reflect.ValueOf(&s.flow).Elem().FieldByName("probes").Int())
}
