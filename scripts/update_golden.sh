#!/usr/bin/env bash
# Refresh the golden fixtures after an intentional behaviour change.
#
# Re-runs the paper study at the pinned scale/seed and rewrites
# tests/golden/study_scale_0.01.digests (the baseline preferred-policy
# study) plus one tests/golden/study_<policy>_0.01.digests file per
# registered selection policy.  Review the diff before committing: every
# changed line is a claim that the simulator's output was *meant* to
# change.  The preferred per-policy file must stay byte-identical to the
# baseline file — the script fails if they diverge.  It also rewrites
# the monitor timeline digests, the three scenario front-end tables
# (tests/golden/{whatif,sweep,grid}_*.txt), the study stdout every
# equivalence-contract cell must print (study_0.01.txt), the degradation
# report of a study whose faults are all retried (degradation_0.01.txt),
# the full report (report_0.01.txt) and the sha256 of each figure file
# (figures_0.01.sha256).
set -euo pipefail

cd "$(dirname "$0")/.."

OUT=tests/golden/study_scale_0.01.digests

PYTHONPATH=src REPRO_CACHE=off python -m repro study --scale 0.01 --seed 7 \
    --digests | grep '^digest ' > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"

echo "updated $OUT:"
cat "$OUT"

POLICIES=$(PYTHONPATH=src python -c \
    'from repro.cdn.selection import registered_policy_kinds
print("\n".join(registered_policy_kinds()))')

for policy in $POLICIES; do
    POUT="tests/golden/study_${policy}_0.01.digests"
    # `repro eval --digests` emits "digest <policy> <dataset> <sha256>";
    # the fixture stores "digest <dataset> <sha256>".
    PYTHONPATH=src REPRO_CACHE=off python -m repro eval --scale 0.01 --seed 7 \
        --policy "$policy" --digests | grep '^digest ' \
        | awk '{print $1, $3, $4}' > "$POUT.tmp"
    mv "$POUT.tmp" "$POUT"
    echo "updated $POUT"
done

# The preferred policy IS the baseline study; the fixtures must agree.
if ! diff -q "$OUT" tests/golden/study_preferred_0.01.digests > /dev/null; then
    echo "ERROR: study_preferred_0.01.digests diverged from $OUT" >&2
    exit 1
fi

# The monitor timeline: per-epoch snapshot digests over the built-in
# demo evolution (8 one-day epochs).
MOUT=tests/golden/monitor_0.01.digests
PYTHONPATH=src REPRO_CACHE=off python -m repro monitor --scale 0.01 --seed 7 \
    --digests | grep '^digest ' > "$MOUT.tmp"
mv "$MOUT.tmp" "$MOUT"
echo "updated $MOUT:"
cat "$MOUT"

# The scenario front ends' tables (tests/test_frontend_golden.py): the
# full what-if comparison, a one-field sweep and a two-axis grid run.
PYTHONPATH=src REPRO_CACHE=off python -m repro whatif --dataset EU1-ADSL \
    --scale 0.01 --seed 7 > tests/golden/whatif_EU1-ADSL_0.01.txt
PYTHONPATH=src REPRO_CACHE=off python -m repro sweep --dataset EU2 \
    --parameter internal_dc_cap_of_mean --values 0.2,0.55,1.2 \
    --scale 0.006 --seed 7 > tests/golden/sweep_EU2_0.006.txt
PYTHONPATH=src REPRO_CACHE=off python -m repro grid run --base EU1-FTTH \
    --axis policy=preferred,geographic --axis variant=baseline,flash-crowd \
    --scale 0.004 --seed 7 > tests/golden/grid_EU1-FTTH_0.004.txt
echo "updated tests/golden/{whatif_EU1-ADSL_0.01,sweep_EU2_0.006,grid_EU1-FTTH_0.004}.txt"

# The study's answer (tests/test_contract.py, tests/test_report_golden.py).
PYTHONPATH=src REPRO_CACHE=off python -m repro study --scale 0.01 --seed 7 \
    --digests > tests/golden/study_0.01.txt
PYTHONPATH=src REPRO_CACHE=off python -m repro study --scale 0.01 --seed 7 \
    --full --validate --digests > tests/golden/report_0.01.txt
# The plan must match RETRIED_PLAN in tests/test_contract.py.
PYTHONPATH=src REPRO_CACHE=off python -m repro study --scale 0.01 --seed 7 \
    --digests --faults '{"seed": 4, "task_transient": 0.3, "probe_timeout": 0.2}' \
    | sed -n '/^DEGRADATION REPORT$/,$p' > tests/golden/degradation_0.01.txt
FIGS=$(mktemp -d)
trap 'rm -rf "$FIGS"' EXIT
PYTHONPATH=src REPRO_CACHE=off python -m repro figures --scale 0.01 --seed 7 \
    --out-dir "$FIGS" > /dev/null
(cd "$FIGS" && export LC_ALL=C && sha256sum -- *) > tests/golden/figures_0.01.sha256
echo "updated tests/golden/{study_0.01,degradation_0.01,report_0.01}.txt and figures_0.01.sha256"
