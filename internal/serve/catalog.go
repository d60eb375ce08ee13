package serve

// Every RUN names one twitter.Queries entry by its wire name: the
// paper's Table 2 workload plus the update workload. A fixed catalogue
// (instead of shipping query text) keeps the wire values a closed set
// and gives the driver a static idempotence map for retry
// classification — reads retry on transport faults, writes never do.

// QueryStatement is the canonical serve-level statement text for one
// engine/query pair — the fingerprint key of the server's per-statement
// registry (Server.QueryStats), shared with the bench tables so both
// report overload under the same label.
func QueryStatement(engine, query string) string {
	return engine + "/" + query
}
