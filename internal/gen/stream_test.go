package gen

import "testing"

func streamFixture(t *testing.T) (*Stream, Summary) {
	t.Helper()
	cfg := Default()
	cfg.Users = 100
	sum, err := GenerateStream(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return NewStream(cfg, sum), sum
}

func TestStreamDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Users = 100
	sum, err := GenerateStream(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := NewStream(cfg, sum).Take(200)
	b := NewStream(cfg, sum).Take(200)
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].UID != b[i].UID || a[i].TID != b[i].TID {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestStreamEventMixAndIDs(t *testing.T) {
	s, sum := streamFixture(t)
	counts := map[EventKind]int{}
	seenUID := map[int64]bool{}
	seenTID := map[int64]bool{}
	for _, ev := range s.Take(2000) {
		counts[ev.Kind]++
		switch ev.Kind {
		case EventNewUser:
			if ev.UID <= int64(sum.Users) {
				t.Fatalf("new user id %d collides with dataset", ev.UID)
			}
			if seenUID[ev.UID] {
				t.Fatalf("duplicate new uid %d", ev.UID)
			}
			seenUID[ev.UID] = true
			if ev.ScreenName == "" {
				t.Fatal("new user without screen name")
			}
		case EventNewFollow:
			if ev.UID == ev.TargetUID {
				t.Fatal("self-follow emitted")
			}
		case EventNewTweet:
			if ev.TID <= int64(sum.Tweets) {
				t.Fatalf("new tweet id %d collides with dataset", ev.TID)
			}
			if seenTID[ev.TID] {
				t.Fatalf("duplicate tid %d", ev.TID)
			}
			seenTID[ev.TID] = true
			if ev.Text == "" {
				t.Fatal("tweet without text")
			}
			// Mentions unique and never self.
			seen := map[int64]bool{}
			for _, m := range ev.Mentions {
				if m == ev.UID || seen[m] {
					t.Fatalf("bad mention list %v for uid %d", ev.Mentions, ev.UID)
				}
				seen[m] = true
			}
		}
	}
	// Tweets dominate, follows common, signups rare but present.
	if counts[EventNewTweet] <= counts[EventNewFollow] || counts[EventNewFollow] <= counts[EventNewUser] {
		t.Errorf("event mix off: %v", counts)
	}
	if counts[EventNewUser] == 0 {
		t.Error("no signups in 2000 events")
	}
}

func TestStreamEventKindString(t *testing.T) {
	if EventNewUser.String() != "new-user" || EventNewFollow.String() != "new-follow" ||
		EventNewTweet.String() != "new-tweet" || EventKind(9).String() != "event(9)" {
		t.Error("EventKind.String wrong")
	}
}
