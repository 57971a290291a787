package obsv

import (
	"bufio"
	"fmt"
	"io"

	"thermostat/internal/addr"
)

// writeAccessedDump renders the engine classification census as plain
// text, in the spirit of memtierd's `policy -dump accessed` query: one
// summary table per engine (pages and megabytes per class) followed by up
// to maxPages per-page rows (base address, estimated rate, class).
// maxPages <= 0 selects the default of 256.
func (p *Publisher) writeAccessedDump(w io.Writer, maxPages int) error {
	if maxPages <= 0 {
		maxPages = 256
	}
	bw := bufio.NewWriter(w)
	engines := p.censuses()
	if len(engines) == 0 {
		fmt.Fprintln(bw, "no engine census published yet (runs attach engines after their first tick)")
		return bw.Flush()
	}
	const pageMB = float64(addr.PageSize2M) / (1 << 20)
	for _, e := range engines {
		c := e.Census
		fmt.Fprintf(bw, "# run %s engine %s periods %d time %.3fs slowdown %.3f%% inflight %d\n",
			e.Label, c.Name, c.Periods, float64(c.TimeNs)/1e9, c.SlowdownPct, c.Inflight)
		var hot, cold, quar int
		for _, pg := range c.Pages {
			switch {
			case pg.Quarantined:
				quar++
			case pg.Cold:
				cold++
			default:
				hot++
			}
		}
		fmt.Fprintln(bw, "table: classification census")
		fmt.Fprintf(bw, "%12s %8s %10s\n", "class", "pages", "mem[M]")
		for _, row := range []struct {
			class string
			n     int
		}{{"hot", hot}, {"cold", cold}, {"quarantined", quar}} {
			fmt.Fprintf(bw, "%12s %8d %10.1f\n", row.class, row.n, float64(row.n)*pageMB)
		}
		fmt.Fprintln(bw, "table: pages")
		fmt.Fprintf(bw, "%14s %14s %12s\n", "base", "rate[acc/s]", "class")
		shown := 0
		for _, pg := range c.Pages {
			if shown >= maxPages {
				fmt.Fprintf(bw, "... %d more pages (raise ?n=)\n", len(c.Pages)-shown)
				break
			}
			class := "hot"
			switch {
			case pg.Quarantined:
				class = "quarantined"
			case pg.Cold:
				class = "cold"
			}
			fmt.Fprintf(bw, "%#14x %14.3f %12s\n", uint64(pg.Base), pg.RatePerSec, class)
			shown++
		}
	}
	return bw.Flush()
}
