#!/usr/bin/env bash
# Paired dynbench runs of a base revision against the working tree.
#
#   scripts/perf_pair.sh BASE_REV NAME [options]
#
# Builds the dynbench binary of BASE_REV (a `git archive` export, so no
# network and no worktree left registered in .git) and of the working
# tree into separate CARGO_TARGET_DIRs. For every WORKLOAD:SEED it then
# runs PAIRS alternating pairs of untraced runs, the base first on odd
# pairs and the change first on even ones, each side in its own run
# directory, and `cmp`s the two sides' digests. A 10 s traced run per
# side of the first WORKLOAD:SEED follows. The result goes to
# BENCH_<NAME>.json in the repository root, with the keys of the earlier
# BENCH_*.json files: change, parent_commit, host, command, order,
# quartiles, claim, digests, untraced, traced. The traced block names
# the per-layer metric that moved most.
#
# Exits 1 when, for some WORKLOAD:SEED, the change's median of an
# end-to-end metric of BENCHMARK.json is worse than the parent's median by
# more than that metric's `bound` (a fraction of the parent's median); it
# names each such metric on stderr. The JSON is written either way.
#
# Options:
#   --pairs N            pairs per WORKLOAD:SEED (default 10)
#   --seconds S          measured seconds per untraced run (default 30)
#   --run WORKLOAD:SEED  repeatable; default sched_mix:1,
#                        sched_mix:20171018, adas_cycle:1, fleet_rollout:1
#   --claim METRIC:WORKLOAD
#                        the end-to-end metric the change claims to lower
#   --change TEXT        what the change does (default: HEAD's subject)
#   --variant PATCH      also build BASE_REV with PATCH applied (an
#                        unrelated change) and run it as a third side in
#                        every round, rotating the start; it shows how far
#                        code layout alone moves a metric
#   --work DIR           builds and run directories (default: a temporary
#                        directory, removed at exit)
#
# Needs cargo and python3. The change side is built from the working
# tree; the dynbench build may rewrite dynbench/Cargo.lock, so the script
# restores the file as it found it.
set -euo pipefail

usage() {
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2
  exit 2
}

[ "$#" -ge 2 ] || usage
base_rev=$1
name=$2
shift 2
pairs=10
seconds=30
runs=()
claim=""
change=""
variant=""
work=""
while [ "$#" -gt 0 ]; do
  [ "$#" -ge 2 ] || usage
  case $1 in
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --run) runs+=("$2") ;;
    --claim) claim=$2 ;;
    --change) change=$2 ;;
    --variant) variant=$(realpath "$2") ;;
    --work) work=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[ "${#runs[@]}" -gt 0 ] || runs=(sched_mix:1 sched_mix:20171018 adas_cycle:1 fleet_rollout:1)

repo=$(git rev-parse --show-toplevel)
cd "$repo"
base_commit=$(git rev-parse --short "$base_rev^{commit}")
[ -n "$change" ] || change=$(git log -1 --format=%s)
if [ -z "$work" ]; then
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
work=$(realpath "$work")

build() { # build SIDE SOURCE_DIR
  echo "==> building $1" >&2
  CARGO_TARGET_DIR="$work/build-$1" cargo build --release --offline --quiet \
    --manifest-path "$2/dynbench/Cargo.toml"
  mkdir -p "$work/run-$1"
}

rm -rf "$work/src-base"
mkdir -p "$work/src-base"
git archive "$base_commit" | tar -x -C "$work/src-base"
build base "$work/src-base"
lock=$(mktemp)
cp dynbench/Cargo.lock "$lock"
build change "$repo" || { cp "$lock" dynbench/Cargo.lock; exit 1; }
cp "$lock" dynbench/Cargo.lock
rm -f "$lock"
sides=(base change)
if [ -n "$variant" ]; then
  rm -rf "$work/src-variant"
  cp -r "$work/src-base" "$work/src-variant"
  patch -p1 -s -d "$work/src-variant" <"$variant"
  build variant "$work/src-variant"
  sides+=(variant)
fi

results="$work/results.tsv"
: >"$results"
run_side() { # run_side SIDE WORKLOAD SEED SECONDS TRACE ROUND
  local out="$work/out-$1-$2-$3-$5-$6.txt"
  (cd "$work/run-$1" &&
    "$work/build-$1/release/dynbench" --workload "$2" --seed "$3" \
      --seconds "$4" --trace "$5") >"$out" || true
  local same=1
  if [ "$1" != base ] && ! cmp -s "$work/run-$1/.bench_out/digests/$2-seed$3.txt" \
    "$work/run-base/.bench_out/digests/$2-seed$3.txt"; then
    same=0
  fi
  printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$5" "$6" "$same" "$out" >>"$results"
}

n_sides=${#sides[@]}
for ws in "${runs[@]}"; do
  w=${ws%%:*} s=${ws##*:}
  for i in $(seq 1 "$pairs"); do
    echo "==> $w seed $s pair $i/$pairs" >&2
    # Odd pairs start with the base, even pairs with the change; a
    # variant rotates the start through all three sides.
    if [ "$n_sides" -eq 2 ]; then
      if [ $((i % 2)) -eq 1 ]; then order=(base change); else order=(change base); fi
    else
      k=$(((i - 1) % 3))
      order=("${sides[@]:k}" "${sides[@]:0:k}")
    fi
    for side in "${order[@]}"; do
      run_side "$side" "$w" "$s" "$seconds" 0 "$i"
    done
  done
done
traced_seconds=10
tw=${runs[0]%%:*} ts=${runs[0]##*:}
echo "==> traced $tw seed $ts" >&2
run_side base "$tw" "$ts" "$traced_seconds" 1 1
run_side change "$tw" "$ts" "$traced_seconds" 1 1

host="$(nproc)-vCPU $(uname -m), $(awk '/MemTotal/ {printf "%.0f GiB", $2 / 1048576}' /proc/meminfo)"
python3 - "$results" "$repo/BENCH_$name.json" "$base_commit" "$change" "$host" \
  "$seconds" "$claim" "$tw" "$ts" "$traced_seconds" "$variant" "$repo/BENCHMARK.json" <<'PY'
import json, statistics, sys

(results, out_path, base_commit, change, host, seconds, claim, tw, ts,
 traced_seconds, variant, benchmark) = sys.argv[1:]

def parse(path):
    """The result line of one dynbench run, or None if it has none."""
    try:
        lines = [l for l in open(path) if l.startswith("{")]
    except OSError:
        return None
    return json.loads(lines[-1]) if lines else None

rows = []
for line in open(results):
    side, w, seed, trace, rnd, same, path = line.rstrip("\n").split("\t")
    rows.append(dict(side=side, w=w, seed=int(seed), trace=trace == "1",
                     round=int(rnd), same=same == "1", res=parse(path)))

def value(row, metric):
    return row["res"]["metrics"][metric]["value"] if row["res"] else None

def summary(runs):
    q1, med, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "min": min(runs), "max": max(runs)}

untraced, digests, claim_by_seed = [], {}, {}
claim_metric, claim_workload = claim.split(":") if claim else (None, None)
keys = []
for r in rows:
    if not r["trace"] and (r["w"], r["seed"]) not in keys:
        keys.append((r["w"], r["seed"]))
for w, seed in keys:
    mine = [r for r in rows if not r["trace"] and (r["w"], r["seed"]) == (w, seed)]
    by_side = {}
    for r in mine:
        by_side.setdefault(r["side"], {})[r["round"]] = r
    rounds = sorted(by_side["base"])
    ok = all(r["res"] is not None for r in mine)
    entry = {
        "workload": w, "seed": seed, "pairs": len(rounds),
        "failed": {("parent" if s == "base" else s):
                   sum(r["res"]["failed"] if r["res"] else 1 for r in by_side[s].values())
                   for s in by_side},
        "correct": ok and all(r["res"]["correct"] for r in mine),
        "metrics": {},
    }
    metrics = list(mine[0]["res"]["metrics"]) if ok else []
    for m in metrics:
        unit = mine[0]["res"]["metrics"][m]["unit"]
        runs = {s: [value(by_side[s][i], m) for i in rounds] for s in by_side}
        par, chg = runs["base"], runs["change"]
        iqr = summary(par)["q3"] - summary(par)["q1"]
        stat = {
            "unit": unit,
            "parent": summary(par),
            "change": summary(chg),
            "change_better_pairs": sum(c < p for p, c in zip(par, chg)),
            "median_delta_frac": statistics.median(chg) / statistics.median(par) - 1,
            "parent_iqr": iqr,
            "parent_runs": par,
            "change_runs": chg,
        }
        if "variant" in runs:
            stat["variant"] = summary(runs["variant"])
            stat["variant_delta_frac"] = (
                statistics.median(runs["variant"]) / statistics.median(par) - 1)
            stat["variant_runs"] = runs["variant"]
        entry["metrics"][m] = stat
        if (m, w) == (claim_metric, claim_workload):
            gap = statistics.median(par) - statistics.median(chg)
            better = stat["change_better_pairs"]
            claim_by_seed[str(seed)] = {
                "change_better_pairs": f"{better}/{len(rounds)}",
                "median_parent": statistics.median(par),
                "median_change": statistics.median(chg),
                "median_gap": gap,
                "parent_iqr": iqr,
                "holds": better * 10 >= 9 * len(rounds) and gap > iqr,
            }
    untraced.append(entry)
    digests[f"{w} seed {seed}"] = (
        "every other side's digests cmp-equal the parent's in every run"
        if all(r["same"] for r in mine) else "some run's digests differ from the parent's")

traced_rows = {r["side"]: r for r in rows if r["trace"]}
traced = {
    "command": f"dynbench --workload {tw} --seed {ts} --seconds {traced_seconds} --trace 1",
    "runs": 1,
    "parent": traced_rows["base"]["res"]["metrics"] if traced_rows["base"]["res"] else None,
    "change": traced_rows["change"]["res"]["metrics"] if traced_rows["change"]["res"] else None,
}
if traced["parent"] and traced["change"]:
    traced["parent"] = {k: v["value"] for k, v in traced["parent"].items()}
    traced["change"] = {k: v["value"] for k, v in traced["change"].items()}
    moved = [(traced["change"][k] / p - 1, k) for k, p in traced["parent"].items()
             if p and k in traced["change"] and not k.startswith("trace.")]
    frac, metric = max(moved, key=lambda m: abs(m[0]))
    traced["moved_most"] = {"metric": metric, "delta_frac": frac}

order = "pair i runs the parent first when i is odd, the change first when i is even"
if variant:
    order = ("round i runs parent, change, variant rotated left by i - 1: "
             "round 1 starts with the parent, round 2 with the change, round 3 with the variant")
doc = {
    "schema": "dynplat.dynbench.pairs.v1",
    "change": change,
    "parent_commit": base_commit,
    "host": host,
    "command": f"dynbench --workload W --seed N --seconds {seconds} --trace 0 "
               "(the binary dynbench/run.sh builds, run from each side's own directory)",
    "order": order,
    "quartiles": "statistics.quantiles(n=4)",
    "claim": {"metric": claim_metric, "workload": claim_workload,
              "by_seed": claim_by_seed} if claim else None,
    "digests": digests,
    "untraced": untraced,
    "traced": traced,
}
if variant:
    doc["variant"] = f"the parent with {variant.rsplit('/', 1)[-1]} applied"
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(out_path)

regressions = []
for gated in json.load(open(benchmark))["end_to_end"]:
    m, bound = gated["name"], gated["bound"]
    sign = 1 if gated["better"] == "lower" else -1
    for entry in untraced:
        stat = entry["metrics"].get(m)
        if stat and sign * stat["median_delta_frac"] > bound:
            regressions.append(
                f"{entry['workload']} seed {entry['seed']}: {m} median "
                f"{stat['parent']['median']:.6g} -> {stat['change']['median']:.6g} "
                f"({stat['median_delta_frac']:+.1%}, bound {bound:.0%})")
for r in regressions:
    print(f"perf_pair: regression: {r}", file=sys.stderr)
sys.exit(1 if regressions else 0)
PY
