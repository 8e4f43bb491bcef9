#!/bin/sh
# pairs.sh REF WORKLOAD N SECONDS — paired end-to-end runs of the benchmark:
# builds ./benchmark at git revision REF (in a temporary git worktree) and in
# the working tree, runs the two binaries N times each on WORKLOAD for
# SECONDS, alternating which goes first, and prints for every end-to-end
# metric of BENCHMARK.json each side's median and quartiles, the ratio of
# the medians and how many pairs each side won. It reads benchmark/ and
# writes nothing there; `make pairs REF=<rev> W=<workload> N=10 S=14` runs it.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: bench/pairs.sh REF WORKLOAD N SECONDS" >&2
	exit 2
fi
ref=$1 workload=$2 n=$3 seconds=$4
cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tmp/tree" 2>/dev/null || true; rm -rf "$tmp"' EXIT

git worktree add --detach --quiet "$tmp/tree" "$ref"
(cd "$tmp/tree" && go build -o "$tmp/ref.bin" ./benchmark)
go build -o "$tmp/cur.bin" ./benchmark

i=1
while [ "$i" -le "$n" ]; do
	order="ref cur"
	if [ $((i % 2)) -eq 0 ]; then
		order="cur ref"
	fi
	for side in $order; do
		"$tmp/$side.bin" --workload "$workload" --seconds "$seconds" --out "$tmp/$side.$i.json" >/dev/null
	done
	echo "pair $i/$n done ($order)" >&2
	i=$((i + 1))
done

# One line per run and metric: side, pair, metric, value. The harness
# writes end_to_end as indented "name": {"value": v, "unit": u} objects.
for f in "$tmp"/ref.*.json "$tmp"/cur.*.json; do
	base=${f##*/}
	awk -v side="${base%%.*}" -v pair="$(echo "$base" | cut -d. -f2)" '
		/"end_to_end": \{/ { in_e2e = 1; next }
		in_e2e && /^ }/ { in_e2e = 0 }
		in_e2e && /": \{$/ { split($0, q, "\""); name = q[2] }
		in_e2e && /"value":/ { v = $2; sub(",", "", v); print side, pair, name, v }
	' "$f"
done >"$tmp/values"

# The direction of every end-to-end metric, from BENCHMARK.json.
awk '
	/"end_to_end"/ { on = 1 }
	/"per_layer"/ { on = 0 }
	on && /"name":/ { split($0, q, "\""); name = q[4] }
	on && /"better":/ { split($0, q, "\""); print name, q[4] }
' BENCHMARK.json >"$tmp/better"

echo "$workload, $n pairs of $seconds s: $ref (ref) against the working tree (cur)"
printf '%-24s %-32s %-32s %7s %9s\n' metric "ref median [q1, q3]" "cur median [q1, q3]" cur/ref "wins r/c"
while read -r metric better; do
	grep " $metric " "$tmp/values" >"$tmp/m" || continue
	awk -v metric="$metric" -v better="$better" '
		function quantile(a, k, p,    h, lo) {
			h = (k - 1) * p + 1; lo = int(h)
			return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		function sortn(a, k,    i, j, t) {
			for (i = 2; i <= k; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		{ v[$1, $2] = $4; if ($1 == "ref") r[++nr] = $4; else c[++nc] = $4; pairs[$2] = 1 }
		END {
			for (p in pairs) {
				if (!(("ref", p) in v) || !(("cur", p) in v)) continue
				d = v["cur", p] - v["ref", p]
				if (better == "lower") d = -d
				if (d > 0) wc++; else if (d < 0) wr++
			}
			sortn(r, nr); sortn(c, nc)
			mr = quantile(r, nr, 0.5); mc = quantile(c, nc, 0.5)
			printf "%-24s %-32s %-32s %7.3f %4d/%-4d\n", metric,
				sprintf("%.4g [%.4g, %.4g]", mr, quantile(r, nr, 0.25), quantile(r, nr, 0.75)),
				sprintf("%.4g [%.4g, %.4g]", mc, quantile(c, nc, 0.25), quantile(c, nc, 0.75)),
				mr != 0 ? mc / mr : 0, wr, wc
		}
	' "$tmp/m"
done <"$tmp/better"
