package gen

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Streaming generation. Materialising the whole edge set before
// writing (the follows list, a global dedup map and a follower-weighted
// pool are all O(edges)) would make the generator — not the engines —
// the memory ceiling at paper scale, where that is hundreds of millions
// of entries. GenerateStream emits every CSV row as it is drawn and
// keeps only O(Users) state:
//
//   - a Fenwick tree over per-user attachment weights stands in for a
//     multiplicity pool: user u carries weight 1 + 2·inDeg(u), so
//     preferential attachment grows hubs superlinearly;
//   - duplicate follows are deduplicated per source user (each source
//     is visited once, so a global seen map adds nothing);
//   - the tweet pass needs each author's followee list for mention
//     locality; instead of holding the whole out-adjacency it re-reads
//     follows.csv sequentially — rows are grouped by source user in
//     ascending order, so one small slice per author suffices.
//
// The output is byte-identical for a given Config; the shape
// invariants (heavy-tailed follower graph, Zipf hashtags, mention
// locality) are pinned by tests.

// GenerateStream writes the dataset CSVs into dir (created if needed)
// without materialising the graph, and returns the summary.
func GenerateStream(cfg Config, dir string) (Summary, error) {
	if cfg.Users <= 0 {
		return Summary{}, fmt.Errorf("gen: Users must be positive")
	}
	if cfg.TweetingRatio <= 0 || cfg.TweetingRatio > 1 {
		cfg.TweetingRatio = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Summary{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sum Summary
	sum.Users = cfg.Users

	inDeg, err := streamFollows(rng, cfg, dir, &sum)
	if err != nil {
		return sum, err
	}
	if err := writeCSV(filepath.Join(dir, "users.csv"), []string{"uid", "screen_name", "followers"},
		cfg.Users, func(i int, rec []string) {
			uid := i + 1
			rec[0] = strconv.Itoa(uid)
			rec[1] = "user" + strconv.Itoa(uid)
			rec[2] = strconv.Itoa(inDeg[i])
		}); err != nil {
		return sum, err
	}
	if err := streamTweets(rng, cfg, dir, inDeg, &sum); err != nil {
		return sum, err
	}
	return sum, nil
}

// streamFollows draws the preferential-attachment follower graph,
// writing each edge as it is accepted. Returns per-user in-degrees.
func streamFollows(rng *rand.Rand, cfg Config, dir string, sum *Summary) ([]int, error) {
	n := cfg.Users
	inDeg := make([]int, n)
	// Attachment weights: 1 per user plus 2 per follower gained, which
	// produces the pronounced hubs real follower graphs (and the
	// paper's crawl) show.
	fen := newFenwick(n)
	for u := 0; u < n; u++ {
		fen.add(u, 1)
	}
	f, err := os.Create(filepath.Join(dir, "follows.csv"))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString("src,dst\n"); err != nil {
		f.Close()
		return nil, err
	}
	buf := make([]byte, 0, 32)
	var followees []int
	for u := 0; u < n; u++ {
		followees = followees[:0]
		k := sampleCount(rng, cfg.AvgFollowees)
		for tries := 0; k > 0 && tries < 20*int(cfg.AvgFollowees+1); tries++ {
			t := fen.search(rng.Int63n(fen.total()))
			if t == u || intsContain(followees, t) {
				continue
			}
			followees = append(followees, t)
			inDeg[t]++
			fen.add(t, 2)
			sum.Follows++
			buf = buf[:0]
			buf = strconv.AppendInt(buf, int64(u+1), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(t+1), 10)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return nil, err
			}
			k--
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return inDeg, f.Close()
}

// streamTweets draws tweets, posts, mentions, tags (and optional
// retweets), one author at a time, streaming each row out as drawn.
// Mention targets mix the author's own followees (locality: people talk
// to their own community, which gives Q5.1 a non-trivial answer set)
// with a follower-weighted global draw (the most-followed accounts are
// also the most-mentioned).
func streamTweets(rng *rand.Rand, cfg Config, dir string, inDeg []int, sum *Summary) error {
	tweeters := int(float64(cfg.Users) * cfg.TweetingRatio)
	if tweeters < 1 {
		tweeters = 1
	}
	var tagZipf *rand.Zipf
	if cfg.Hashtags > 0 {
		tagZipf = rand.NewZipf(rng, 1.2, 3, uint64(cfg.Hashtags-1))
	}
	// Global mention draw: follower-weighted, final weights.
	fen := newFenwick(cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		fen.add(u, int64(1+2*inDeg[u]))
	}

	fol, err := newFolloweeScanner(filepath.Join(dir, "follows.csv"))
	if err != nil {
		return err
	}
	defer fol.close()

	// The deferred close only releases files on an error return; the
	// success path closes them below and reports their flush errors.
	files := map[string]*streamCSV{}
	defer func() {
		for _, sc := range files {
			sc.close()
		}
	}()
	headers := map[string]string{
		"tweets.csv":   "tid,text",
		"posts.csv":    "uid,tid",
		"mentions.csv": "tid,uid",
		"tags.csv":     "tid,hid",
	}
	if cfg.Retweets {
		headers["retweets.csv"] = "src,dst"
	}
	for name, header := range headers {
		sc, err := newStreamCSV(filepath.Join(dir, name), header)
		if err != nil {
			return err
		}
		files[name] = sc
	}
	retweetsF := files["retweets.csv"]

	usedTags := map[int]bool{}
	tid := 0
	var sb strings.Builder
	for u := 1; u <= tweeters; u++ {
		followees, err := fol.followeesOf(u)
		if err != nil {
			return err
		}
		for k := 0; k < cfg.TweetsPerUser; k++ {
			tid++
			sb.Reset()
			sb.WriteString("status ")
			sb.WriteString(strconv.Itoa(tid))
			sb.WriteString(" from user")
			sb.WriteString(strconv.Itoa(u))
			if err := files["posts.csv"].pair(u, tid); err != nil {
				return err
			}
			sum.Posts++

			seenM := map[int]bool{}
			for m := sampleCount(rng, cfg.MentionsPer); m > 0 && cfg.Users > 1; m-- {
				var target int
				if len(followees) > 0 && rng.Float64() < 0.5 {
					target = followees[rng.Intn(len(followees))]
				} else {
					target = fen.search(rng.Int63n(fen.total())) + 1
				}
				if target == u || seenM[target] {
					continue
				}
				seenM[target] = true
				if err := files["mentions.csv"].pair(tid, target); err != nil {
					return err
				}
				sum.Mentions++
				sb.WriteString(" @user")
				sb.WriteString(strconv.Itoa(target))
			}
			seenT := map[int]bool{}
			for h := sampleCount(rng, cfg.TagsPer); h > 0 && cfg.Hashtags > 0; h-- {
				tag := 1 + int(tagZipf.Uint64())
				if seenT[tag] {
					continue
				}
				seenT[tag] = true
				usedTags[tag] = true
				if err := files["tags.csv"].pair(tid, tag); err != nil {
					return err
				}
				sum.Tags++
				sb.WriteString(" #topic")
				sb.WriteString(strconv.Itoa(tag))
			}
			if err := files["tweets.csv"].row(strconv.Itoa(tid), sb.String()); err != nil {
				return err
			}
			if cfg.Retweets && tid > 1 {
				seenR := map[int]bool{}
				for r := sampleCount(rng, cfg.RetweetsPer); r > 0; r-- {
					orig := 1 + rng.Intn(tid-1)
					if seenR[orig] {
						continue
					}
					seenR[orig] = true
					if err := retweetsF.pair(tid, orig); err != nil {
						return err
					}
					sum.Retweets++
				}
			}
		}
	}
	sum.Tweets = tid
	for _, sc := range files {
		if err := sc.close(); err != nil {
			return err
		}
	}

	var tagList []int
	for t := range usedTags {
		tagList = append(tagList, t)
	}
	sort.Ints(tagList)
	sum.Hashtags = len(tagList)
	return writeCSV(filepath.Join(dir, "hashtags.csv"), []string{"hid", "tag"},
		len(tagList), func(i int, rec []string) {
			rec[0] = strconv.Itoa(tagList[i])
			rec[1] = "topic" + strconv.Itoa(tagList[i])
		})
}

// intsContain is a linear membership test — followee lists are mean
// AvgFollowees long, far below the point where a map would pay off.
func intsContain(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// ---------- Fenwick tree (weighted sampling in O(log n)) ----------

// fenwick is a binary indexed tree over int64 weights supporting point
// updates, prefix sums, and inverse-prefix search — the classic
// replacement for a multiplicity pool when the pool would be O(edges).
type fenwick struct {
	tree []int64
	sum  int64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

// add increases element i's weight by w.
func (f *fenwick) add(i int, w int64) {
	f.sum += w
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += w
	}
}

// total returns the sum of all weights.
func (f *fenwick) total() int64 { return f.sum }

// search returns the smallest i whose prefix sum exceeds r (0 <= r <
// total): a uniform r picks i with probability weight(i)/total.
func (f *fenwick) search(r int64) int {
	i := 0
	mask := 1
	for mask<<1 < len(f.tree) {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := i + mask
		if next < len(f.tree) && f.tree[next] <= r {
			r -= f.tree[next]
			i = next
		}
	}
	return i // 0-based element index
}

// ---------- streaming CSV plumbing ----------

// streamCSV is a buffered append-only CSV writer for the simple
// numeric/text rows the generator emits (no quoting needed beyond
// what the static generator produces).
type streamCSV struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
	err error
}

func newStreamCSV(path, header string) (*streamCSV, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(header + "\n"); err != nil {
		f.Close()
		return nil, err
	}
	return &streamCSV{f: f, w: w, buf: make([]byte, 0, 64)}, nil
}

func (s *streamCSV) pair(a, b int) error {
	s.buf = s.buf[:0]
	s.buf = strconv.AppendInt(s.buf, int64(a), 10)
	s.buf = append(s.buf, ',')
	s.buf = strconv.AppendInt(s.buf, int64(b), 10)
	s.buf = append(s.buf, '\n')
	_, err := s.w.Write(s.buf)
	return err
}

// row writes one record, CSV-quoting any field that needs it — tweet
// text contains no quotes or commas today, but the writer stays correct
// if that changes.
func (s *streamCSV) row(fields ...string) error {
	s.buf = s.buf[:0]
	for i, f := range fields {
		if i > 0 {
			s.buf = append(s.buf, ',')
		}
		if strings.ContainsAny(f, ",\"\n") {
			s.buf = append(s.buf, '"')
			s.buf = append(s.buf, strings.ReplaceAll(f, `"`, `""`)...)
			s.buf = append(s.buf, '"')
		} else {
			s.buf = append(s.buf, f...)
		}
	}
	s.buf = append(s.buf, '\n')
	_, err := s.w.Write(s.buf)
	return err
}

// close flushes and closes the file, returning the first error. It is
// idempotent: later calls return nil.
func (s *streamCSV) close() error {
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// followeeScanner streams follows.csv back in, returning each source
// user's followee list in turn. Rows are grouped by source in
// ascending order (the order streamFollows wrote them), so only the
// current group is ever held.
type followeeScanner struct {
	f    *os.File
	r    *bufio.Scanner
	next [2]int // lookahead row; next[0] == 0 means exhausted
	out  []int
}

func newFolloweeScanner(path string) (*followeeScanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	sc.Scan() // header
	s := &followeeScanner{f: f, r: sc}
	s.advance()
	return s, nil
}

func (s *followeeScanner) advance() {
	s.next = [2]int{}
	if !s.r.Scan() {
		return
	}
	line := s.r.Text()
	comma := strings.IndexByte(line, ',')
	if comma < 0 {
		return
	}
	src, err1 := strconv.Atoi(line[:comma])
	dst, err2 := strconv.Atoi(line[comma+1:])
	if err1 == nil && err2 == nil {
		s.next = [2]int{src, dst}
	}
}

// followeesOf returns user u's followees. Callers must ask for users in
// ascending order; the returned slice is valid until the next call.
func (s *followeeScanner) followeesOf(u int) ([]int, error) {
	s.out = s.out[:0]
	for s.next[0] != 0 && s.next[0] < u {
		s.advance() // skip users before u (shouldn't happen in order)
	}
	for s.next[0] == u {
		s.out = append(s.out, s.next[1])
		s.advance()
	}
	return s.out, s.r.Err()
}

func (s *followeeScanner) close() error { return s.f.Close() }
