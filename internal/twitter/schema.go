// Package twitter defines the microblogging schema of the paper's
// Figure 1 — node types user, tweet and hashtag; relationship types
// follows, posts, retweets, mentions and tags — and implements the full
// query workload of Table 2 (Q1.1–Q6.1) twice: once against the
// Neo4j-analog engine through its declarative query language, and once
// against the Sparksee-analog engine through its imperative navigation
// API. The two implementations return identical, normalised results,
// which the tests exploit as a differential-correctness oracle.
package twitter

// Schema vocabulary (Figure 1).
const (
	LabelUser    = "user"
	LabelTweet   = "tweet"
	LabelHashtag = "hashtag"

	RelFollows  = "follows"
	RelPosts    = "posts"
	RelRetweets = "retweets"
	RelMentions = "mentions"
	RelTags     = "tags"

	PropUID        = "uid"
	PropScreenName = "screen_name"
	PropFollowers  = "followers"
	PropTID        = "tid"
	PropText       = "text"
	PropHID        = "hid"
	PropTag        = "tag"
)

// Counted is one entry of a top-n result: an external id (uid or tid)
// with its frequency. Results order by Count descending, then ID
// ascending, so both engines produce byte-identical rankings.
type Counted struct {
	ID    int64
	Count int64
}

// CountedTag is a top-n entry keyed by hashtag text.
type CountedTag struct {
	Tag   string
	Count int64
}

// Store is the engine-agnostic interface to the Table 2 workload. Both
// database engines implement it; ids are the external dataset ids (uid,
// tid), never engine-internal node ids. A query with no rows, an
// unknown uid or tag included, returns an empty non-nil slice and a nil
// error, so both engines' results compare equal with reflect.DeepEqual.
type Store interface {
	// Name identifies the engine ("neo" or "sparksee").
	Name() string

	// Q1.1: uids of users with a follower count above the threshold,
	// ascending.
	UsersWithFollowersOver(threshold int64) ([]int64, error)

	// Q2.1: followees of the user, ascending uid.
	Followees(uid int64) ([]int64, error)

	// Q2.2: tids of tweets posted by the user's followees, ascending.
	TweetsOfFollowees(uid int64) ([]int64, error)

	// Q2.3: distinct hashtags used by the user's followees, sorted.
	HashtagsOfFollowees(uid int64) ([]string, error)

	// Q3.1: top-n users most frequently co-mentioned with the user
	// (other users mentioned in tweets that mention uid).
	CoMentionedUsers(uid int64, n int) ([]Counted, error)

	// Q3.2: top-n hashtags most frequently co-occurring with the tag.
	CoOccurringHashtags(tag string, n int) ([]CountedTag, error)

	// Q4.1: top-n 2-step followees the user does not follow yet,
	// ranked by path count.
	RecommendFollowees(uid int64, n int) ([]Counted, error)

	// Q4.2: top-n followers of the user's followees whom the user does
	// not follow yet, ranked by path count.
	RecommendFollowersOfFollowees(uid int64, n int) ([]Counted, error)

	// Q5.1: top-n users who mention uid and already follow uid
	// (current influence).
	CurrentInfluence(uid int64, n int) ([]Counted, error)

	// Q5.2: top-n users who mention uid without following uid
	// (potential influence).
	PotentialInfluence(uid int64, n int) ([]Counted, error)

	// Q6.1: length of the shortest follows-path between two users,
	// bounded at maxHops; ok=false when none exists within the bound.
	ShortestPathLength(fromUID, toUID int64, maxHops int) (int, bool, error)

	// Close releases the underlying engine.
	Close() error
}

// UpdateStore is the optional write interface used by the update
// workload (the paper's future-work experiment): inserting new users,
// tweets and follow relationships into a loaded database.
type UpdateStore interface {
	Store
	AddUser(uid int64, screenName string) error
	AddFollow(srcUID, dstUID int64) error
	AddTweet(uid, tid int64, text string, mentionUIDs []int64, tagTexts []string) error
}
