#!/bin/sh
# Run the fixed CLI command set of a checkout and write every output into a
# directory, so that two checkouts can be compared with `diff -r`.
#
# usage: tools/cli_outputs.sh OUTDIR [CHECKOUT]
#
# CHECKOUT (default: the checkout holding this script) supplies src/; the
# package runs from it with no install.  For each call NAME the directory
# gets NAME.stdout, NAME.stderr (the checkout's path replaced by <src>) and
# NAME.exit, plus every file the call writes.  Names start with "closed-"
# for closed-form maps, whose bytes must not change between checkouts, and
# with "series-" for series maps, whose check and curvature-map values may
# move in their last digits when the evaluation route changes.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUTDIR [CHECKOUT]" >&2
    exit 64
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
src=$(cd "${2:-$(dirname "$0")/..}" && pwd)/src
py=${PYTHON:-python3}

run() {
    name=$1
    shift
    (cd "$out" && PYTHONPATH="$src" "$py" -m convmap "$@" >"$name.stdout" 2>"$name.stderr")
    echo $? >"$out/$name.exit"
    sed "s#$src#<src>#g" "$out/$name.stderr" >"$out/$name.stderr.tmp" && mv "$out/$name.stderr.tmp" "$out/$name.stderr"
}

# compose NAME SRC_JSON: SRC_JSON with a precomposition and a postcomposition
# (with_pre=0 keeps only the postcomposition)
compose() {
    (cd "$out" && "$py" - "$@" <<'EOF'
import json, sys
name, spec, with_pre = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
with open(spec, encoding="utf-8") as fp:
    obj = json.load(fp)
if with_pre:
    obj["pre"] = {"a": [0.2, -0.1], "theta": 0.7}
obj["post"] = {"scale": [1.5, -0.5], "offset": [0.25, 1.0]}
with open(name, "w", encoding="utf-8") as fp:
    json.dump(obj, fp, indent=2)
EOF
    )
}

# closed forms: the README examples and the traces of earlier diffs
run closed-check-sector check --map sector --alpha 0.5
run closed-check-koebe check --map koebe
run closed-trace-identity trace --map identity --c 0.75 --out closed-trace-identity.csv --svg closed-trace-identity.svg
run closed-curvature-strip curvature-map --map strip --out closed-curvature-strip.csv
run closed-curvature-polygon5 curvature-map --map polygon --n 5 --out closed-curvature-polygon5.csv
run closed-trace-polygon5 trace --map polygon --n 5 --c 0.9 --out closed-trace-polygon5.csv
run closed-trace-halfplane trace --map halfplane --c 0.5 --theta 3.14159 --out closed-trace-halfplane.csv
echo '{"type": "sector", "params": {"alpha": 0.75}}' >"$out/closed-sector.json"
compose closed-sector-composed.json closed-sector.json 1
run closed-check-sector-composed check --map closed-sector-composed.json --nr 30 --ntheta 50
run closed-curvature-sector-composed curvature-map --map closed-sector-composed.json --nr 30 --ntheta 50 \
    --out closed-curvature-sector-composed.csv
run closed-trace-sector-composed trace --map closed-sector-composed.json --c 0.5 --out closed-trace-sector-composed.csv
# traces of the other closed-form kinds, and of a composed polygon
run closed-trace-sector trace --map sector --alpha 0.5 --c 0.8 --theta 3.14159 --out closed-trace-sector.csv
run closed-trace-strip trace --map strip --c 0.5 --theta 1.5707963267948966 --out closed-trace-strip.csv
run closed-trace-koebe trace --map koebe --c 0.5 --theta 3.14159 --out closed-trace-koebe.csv
echo '{"type": "polygon", "params": {"n": 5}}' >"$out/closed-polygon5.json"
compose closed-polygon5-composed.json closed-polygon5.json 1
run closed-trace-polygon5-composed trace --map closed-polygon5-composed.json --c 0.8 \
    --out closed-trace-polygon5-composed.csv
# reports on the benchmark's 100x100 grid
run closed-check-identity-100 check --map identity --nr 100 --ntheta 100
run closed-check-halfplane-100 check --map halfplane --nr 100 --ntheta 100
run closed-check-strip-100 check --map strip --nr 100 --ntheta 100
run closed-check-polygon5-100 check --map polygon --n 5 --nr 100 --ntheta 100
run closed-check-polygon5-composed-100 check --map closed-polygon5-composed.json --nr 100 --ntheta 100
# the identity's constant jets under a precomposition and a postcomposition
echo '{"type": "identity"}' >"$out/closed-identity.json"
compose closed-identity-composed.json closed-identity.json 1
run closed-trace-identity-composed trace --map closed-identity-composed.json --c 0.75 \
    --out closed-trace-identity-composed.csv
# composed reports on the 100x100 grid: the chain rule over arrays for each
# closed kind, a postcomposition alone, and a composed curvature grid
for kind in halfplane strip koebe; do
    echo "{\"type\": \"$kind\"}" >"$out/closed-$kind.json"
    compose closed-$kind-composed.json closed-$kind.json 1
done
echo '{"type": "sector", "params": {"alpha": 0.5}}' >"$out/closed-sector0.5.json"
compose closed-sector0.5-composed.json closed-sector0.5.json 1
compose closed-sector0.5-post.json closed-sector0.5.json 0
for name in identity halfplane strip sector0.5 koebe; do
    run closed-check-$name-composed-100 check --map closed-$name-composed.json --nr 100 --ntheta 100
done
run closed-check-sector0.5-post-100 check --map closed-sector0.5-post.json --nr 100 --ntheta 100
# composed traces of the other closed kinds (the identity's is above): each
# march point takes the chain rule's operator form, the 2,048-point start
# scan its in-place form at count 1; then a postcomposition alone
run closed-trace-halfplane-composed trace --map closed-halfplane-composed.json --c 1.0 \
    --out closed-trace-halfplane-composed.csv
run closed-trace-strip-composed trace --map closed-strip-composed.json --c 1.0 \
    --out closed-trace-strip-composed.csv
run closed-trace-koebe-composed trace --map closed-koebe-composed.json --c 1.5 \
    --out closed-trace-koebe-composed.csv
compose closed-halfplane-post.json closed-halfplane.json 0
run closed-trace-halfplane-post trace --map closed-halfplane-post.json --c 2.0 --out closed-trace-halfplane-post.csv
run closed-curvature-sector0.5-composed-100 curvature-map --map closed-sector0.5-composed.json \
    --nr 100 --ntheta 100 --out closed-curvature-sector0.5-composed-100.csv
# curvature grids with scientific-notation cells (koebe) and whole-number
# cells (identity), and the benchmark's 160,000-row call
run closed-curvature-koebe curvature-map --map koebe --out closed-curvature-koebe.csv
run closed-curvature-identity curvature-map --map identity --out closed-curvature-identity.csv
run closed-curvature-polygon5-400 curvature-map --map polygon --n 5 --nr 400 --ntheta 400 \
    --out closed-curvature-polygon5-400.csv
# three blocks of rows with empty kappa cells (the strip's real axis)
run closed-curvature-strip-100 curvature-map --map strip --nr 100 --ntheta 100 --out closed-curvature-strip-100.csv

# series maps
run series-gen-random gen --phi-random 4 --seed 7 --out series-gen-random.json
run series-check-random check --map series-gen-random.json
run series-gen-poly192 gen --phi-poly 0.2,0.3j --order 192 --gen-rmax 0.85 --out series-gen-poly192.json
run series-trace-poly192 trace --map series-gen-poly192.json --c 0.8 --out series-trace-poly192.csv \
    --svg series-trace-poly192.svg
compose series-poly192-composed.json series-gen-poly192.json 1
run series-check-poly192-composed check --map series-poly192-composed.json --rmax 0.6
run series-curvature-poly192-composed curvature-map --map series-poly192-composed.json --rmax 0.6 \
    --out series-curvature-poly192-composed.csv
compose series-poly192-post.json series-gen-poly192.json 0
run series-check-poly192-post check --map series-poly192-post.json --rmax 0.8
run series-curvature-poly192-post curvature-map --map series-poly192-post.json --rmax 0.8 \
    --out series-curvature-poly192-post.csv
# traces of the composed series maps: the chain rule at every Newton iterate
run series-trace-poly192-composed trace --map series-poly192-composed.json --c 0.8 \
    --out series-trace-poly192-composed.csv
run series-trace-poly192-post trace --map series-poly192-post.json --c 1.2 \
    --out series-trace-poly192-post.csv
for order in 24 48 96; do
    run series-gen-o$order gen --phi-poly 0.3,0.2j,-0.25 --gen-rmax 0.85 --order $order --out series-gen-o$order.json
    run series-check-o$order check --map series-gen-o$order.json --rmax 0.8
    run series-curvature-o$order curvature-map --map series-gen-o$order.json --rmax 0.8 \
        --out series-curvature-o$order.csv
    run series-trace-o$order trace --map series-gen-o$order.json --c 0.8 --out series-trace-o$order.csv
done
# a regenerated map: its spec stores phi, and every call rebuilds the series from it
echo '{"type": "herglotz", "params": {"phi": {"kind": "blaschke", "zeros": [[0.3, 0.2]], "theta": 0.5},
 "order": 256, "rmax": 0.85}}' >"$out/series-herglotz.json"
run series-herglotz-check check --map series-herglotz.json --rmax 0.8
run series-herglotz-trace trace --map series-herglotz.json --c 0.8 --out series-herglotz-trace.csv
run series-gen-random32 gen --phi-random 3 --seed 11 --order 32 --out series-gen-random32.json
run series-check-random32 check --map series-gen-random32.json
run series-trace-random32 trace --map series-gen-random32.json --c 0.9 --out series-trace-random32.csv
# z + 1.416 z^81: slack1 reads 1.0 at every angle of the default grid, where
# z^80 is real and positive, but km and slack3 there witness NotConvex (exit 3)
"$py" -c 'import json; c = [[0.0, 0.0]] * 82; c[1] = [1.0, 0.0]; c[81] = [1.416, 0.0]
print(json.dumps({"type": "series", "params": {"coeffs": c, "rmax": 0.9}}))' >"$out/series-alias.json"
run series-check-alias check --map series-alias.json
