package coherence

import "testing"

func TestLineStatePredicates(t *testing.T) {
	cases := []struct {
		st                 LineState
		valid, dirty, w, m bool
		name               string
	}{
		{Invalid, false, false, false, false, "I"},
		{Shared, true, false, false, false, "S"},
		{Exclusive, true, false, true, true, "E"},
		{Owned, true, true, false, true, "O"},
		{Modified, true, true, true, true, "M"},
	}
	for _, c := range cases {
		if c.st.Valid() != c.valid {
			t.Errorf("%v.Valid() = %v", c.st, c.st.Valid())
		}
		if c.st.Dirty() != c.dirty {
			t.Errorf("%v.Dirty() = %v", c.st, c.st.Dirty())
		}
		if c.st.Writable() != c.w {
			t.Errorf("%v.Writable() = %v", c.st, c.st.Writable())
		}
		if c.st.Modifiable() != c.m || c.m != (c.st.Dirty() || c.st == Exclusive) {
			t.Errorf("%v.Modifiable() = %v", c.st, c.st.Modifiable())
		}
		if c.st.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.st, c.st.String(), c.name)
		}
	}
}

func TestReqKindPredicates(t *testing.T) {
	wantsData := map[ReqKind]bool{
		ReqRead: true, ReqReadExcl: true, ReqIFetch: true,
		ReqPrefetch: true, ReqPrefetchExcl: true,
		ReqUpgrade: false, ReqWriteback: false,
		ReqDCBZ: false, ReqDCBF: false, ReqDCBI: false,
	}
	for k, want := range wantsData {
		if k.WantsData() != want {
			t.Errorf("%v.WantsData() = %v", k, k.WantsData())
		}
	}
	wantsExcl := map[ReqKind]bool{
		ReqReadExcl: true, ReqUpgrade: true, ReqDCBZ: true, ReqPrefetchExcl: true,
		ReqRead: false, ReqIFetch: false, ReqWriteback: false, ReqDCBF: false,
		ReqDCBI: false, ReqPrefetch: false,
	}
	for k, want := range wantsExcl {
		if k.WantsExclusive() != want {
			t.Errorf("%v.WantsExclusive() = %v", k, k.WantsExclusive())
		}
	}
	for _, k := range []ReqKind{ReqDCBZ, ReqDCBF, ReqDCBI} {
		if !k.IsDCB() {
			t.Errorf("%v.IsDCB() = false", k)
		}
	}
	if ReqRead.IsDCB() || ReqWriteback.IsDCB() {
		t.Error("non-DCB kind classified as DCB")
	}
	for _, k := range []ReqKind{ReqPrefetch, ReqPrefetchExcl} {
		if !k.IsPrefetch() {
			t.Errorf("%v.IsPrefetch() = false", k)
		}
	}
	if !ReqRead.IsDemand() || !ReqIFetch.IsDemand() {
		t.Error("read/ifetch must be demand kinds")
	}
	if ReqReadExcl.IsDemand() || ReqPrefetch.IsDemand() {
		t.Error("store/prefetch kinds are not demand")
	}
}

func TestKindStrings(t *testing.T) {
	// Every kind has a distinct, non-default string.
	seen := map[string]bool{}
	for k := 0; k < NKinds; k++ {
		s := ReqKind(k).String()
		if seen[s] {
			t.Errorf("duplicate kind string %q", s)
		}
		if len(s) == 0 || s[0] == 'R' && len(s) > 8 && s[:8] == "ReqKind(" {
			t.Errorf("kind %d has default string %q", k, s)
		}
		seen[s] = true
	}
}

func TestNoSnoop(t *testing.T) {
	if NoSnoop.OwnerID != -1 || NoSnoop.Shared || NoSnoop.RegionClean || NoSnoop.RegionDirty {
		t.Errorf("NoSnoop = %+v", NoSnoop)
	}
}
