#!/usr/bin/env bash
# The CLI walkthrough at small sizes: every stage, its --force reruns
# compared byte for byte, and its usage and data errors with their exit
# codes. Run it from the repository root: bash tests/walkthrough.sh. Its
# outputs go to a new directory from mktemp -d (under $TMPDIR if set).
set -e
export PYTHONPATH=src
cli="python -m searesponse.cli"
runs=$(mktemp -d)
$cli weather synth --hours 48 --seed 7 --out $runs/weather
cp -r $runs/weather $runs/weather_first
$cli weather synth --hours 48 --seed 7 --out $runs/weather --force
cmp $runs/weather_first/weather.csv $runs/weather/weather.csv
$cli weather load --path $runs/weather/weather.csv --out $runs/wload
# weather load re-emits a canonical file byte for byte.
cmp $runs/weather/weather.csv $runs/wload/weather.csv
# So it does a copy with CRLF line ends, quoted cells and blank lines.
awk -F, 'NR == 1 { printf "%s\r\n", $0; next }
         { printf "\"%s\",%s,\"%s\",%s\r\n\r\n", $1, $2, $3, $4 }' \
    $runs/weather/weather.csv > $runs/messy.csv
if cmp -s $runs/weather/weather.csv $runs/messy.csv; then exit 1; fi
$cli weather load --path $runs/messy.csv --out $runs/wload_messy
cmp $runs/weather/weather.csv $runs/wload_messy/weather.csv
# An index of 20 digits, beyond int64: exit 3, and no output directory.
sed '2s/^[0-9]*,/12345678901234567890,/' $runs/weather/weather.csv > $runs/big_index.csv
code=0
$cli weather load --path $runs/big_index.csv --out $runs/wload_big_index || code=$?
test $code -eq 3
test ! -e $runs/wload_big_index
# A weather file with a header and no hours: exit 3, and no output
# directory, from weather load and from qoi.
head -n 1 $runs/weather/weather.csv > $runs/header_only.csv
code=0
$cli weather load --path $runs/header_only.csv --out $runs/wload_empty || code=$?
test $code -eq 3
test ! -e $runs/wload_empty
code=0
$cli qoi --source simulator --weather $runs/header_only.csv \
    --k 10 --m 3 --seed 17 --out $runs/qoi_empty || code=$?
test $code -eq 3
test ! -e $runs/qoi_empty
$cli trainset --n 40 --m 3 --seed 11 --out $runs/table
cp -r $runs/table $runs/table_first
$cli trainset --n 40 --m 3 --seed 11 --out $runs/table --force
for f in training_table.csv sim_config.json; do
  cmp $runs/table_first/$f $runs/table/$f
done
# A row whose Rayleigh block is half filled (rayleigh_sigma_std, the
# ninth cell, blanked): train exits 3 and writes no output directory.
sed -E '2s/^(([^,]*,){8})[^,]*/\1/' $runs/table/training_table.csv > $runs/half_filled.csv
if cmp -s $runs/table/training_table.csv $runs/half_filled.csv; then exit 1; fi
code=0
$cli train --table $runs/half_filled.csv --family rayleigh --restarts 1 --seed 13 \
    --out $runs/rayleigh_half_filled || code=$?
test $code -eq 3
test ! -e $runs/rayleigh_half_filled
# A non-default simulator config in canonical form (all nine keys,
# indent=2): trainset re-emits it byte for byte, and both trainset
# and the simulator qoi run on it.
cat > $runs/sim_config.json <<'EOF'
{
  "dt": 0.5,
  "duration": 1024.0,
  "omega0": 0.7,
  "zeta": 0.08,
  "gain": 28000.0,
  "rated_speed": 12.0,
  "cutout_speed": 24.0,
  "rated_force": 150.0,
  "lever_arm": 60.0
}
EOF
$cli trainset --n 40 --m 3 --seed 11 --sim-config $runs/sim_config.json \
    --out $runs/table_cfg
cmp $runs/sim_config.json $runs/table_cfg/sim_config.json
if cmp -s $runs/table/training_table.csv $runs/table_cfg/training_table.csv; then exit 1; fi
$cli qoi --source simulator --sim-config $runs/sim_config.json \
    --weather $runs/wload/weather.csv --k 10 --m 3 --seed 17 --out $runs/qoi_sim_cfg
# A design point whose peak frequency lies above the grid: exit 2
# before any point is simulated, and no output directory.
code=0
$cli trainset --n 40 --m 3 --seed 11 --box-tp 0.5 4 \
    --out $runs/table_off_grid || code=$?
test $code -eq 2
test ! -e $runs/table_off_grid
$cli train --table $runs/table/training_table.csv \
    --family gumbel --restarts 1 --seed 13 --out $runs/gumbel
cp -r $runs/gumbel $runs/gumbel_first
$cli train --table $runs/table/training_table.csv \
    --family gumbel --restarts 1 --seed 13 --out $runs/gumbel --force
for f in bundle.json gp_mu.json gp_beta.json gp_l_count.json; do
  cmp $runs/gumbel_first/$f $runs/gumbel/$f
done
# The draw mode is qoi's alone: train and a simulator qoi reject
# --mode with exit 2, and write no output directory.
code=0
$cli train --table $runs/table/training_table.csv \
    --family gumbel --restarts 1 --seed 13 --mode point --out $runs/gumbel_point || code=$?
test $code -eq 2
test ! -e $runs/gumbel_point
code=0
$cli qoi --source simulator --mode point --weather $runs/wload/weather.csv \
    --k 10 --m 3 --seed 17 --out $runs/qoi_sim_mode || code=$?
test $code -eq 2
test ! -e $runs/qoi_sim_mode
$cli eval --table $runs/table/training_table.csv \
    --bundle $runs/gumbel --out $runs/eval
cp -r $runs/eval $runs/eval_first
$cli eval --table $runs/table/training_table.csv \
    --bundle $runs/gumbel --out $runs/eval --force
for f in eval_mu.csv eval_beta.csv eval_l_count.csv eval_summary.json; do
  cmp $runs/eval_first/$f $runs/eval/$f
done
# eval --include-noise: a --force rerun writes the same files; the
# truths and means are the plain eval's, and the stds are not.
$cli eval --table $runs/table/training_table.csv \
    --bundle $runs/gumbel --include-noise --out $runs/eval_noise
cp -r $runs/eval_noise $runs/eval_noise_first
$cli eval --table $runs/table/training_table.csv \
    --bundle $runs/gumbel --include-noise --out $runs/eval_noise --force
for f in eval_mu.csv eval_beta.csv eval_l_count.csv eval_summary.json; do
  cmp $runs/eval_noise_first/$f $runs/eval_noise/$f
done
for f in eval_mu.csv eval_beta.csv eval_l_count.csv; do
  cut -d, -f1,2 $runs/eval/$f > $runs/plain_means.csv
  cut -d, -f1,2 $runs/eval_noise/$f > $runs/noise_means.csv
  cmp $runs/plain_means.csv $runs/noise_means.csv
done
if cmp -s $runs/eval/eval_mu.csv $runs/eval_noise/eval_mu.csv; then exit 1; fi
$cli qoi --source simulator --weather $runs/wload/weather.csv \
    --k 10 --m 3 --seed 17 --out $runs/qoi_sim
cp -r $runs/qoi_sim $runs/qoi_sim_first
$cli qoi --source simulator --weather $runs/wload/weather.csv \
    --k 10 --m 3 --seed 17 --out $runs/qoi_sim --force
for f in yk_samples.csv rank_summary.csv summary.json; do
  cmp $runs/qoi_sim_first/$f $runs/qoi_sim/$f
done
# One usable CPU gives one worker thread: the same files.
taskset -c 0 $cli qoi --source simulator --weather $runs/wload/weather.csv \
    --k 10 --m 3 --seed 17 --out $runs/qoi_sim_one_cpu
grep -q '"workers": 1' $runs/qoi_sim_one_cpu/manifest.json
for f in yk_samples.csv rank_summary.csv summary.json; do
  cmp $runs/qoi_sim_first/$f $runs/qoi_sim_one_cpu/$f
done
# Each draw mode on the one gumbel bundle: a --force rerun writes
# the same files.
for mode in point sample frozen; do
  out=$runs/qoi_gumbel_$mode
  $cli qoi --source surrogate --bundle $runs/gumbel --mode $mode \
      --weather $runs/weather/weather.csv --k 10 --m 3 --seed 17 --out $out
  cp -r $out ${out}_first
  $cli qoi --source surrogate --bundle $runs/gumbel --mode $mode \
      --weather $runs/weather/weather.csv --k 10 --m 3 --seed 17 --out $out --force
  for f in yk_samples.csv rank_summary.csv summary.json; do
    cmp ${out}_first/$f $out/$f
  done
done
# The flag reaches the draw: sample and frozen runs differ.
if cmp -s $runs/qoi_gumbel_sample/yk_samples.csv \
    $runs/qoi_gumbel_frozen/yk_samples.csv; then exit 1; fi
# 1100 hours span three 512-row prediction blocks: a --force rerun
# writes the same files, and the manifest names qoi_result version 4.
$cli weather synth --hours 1100 --seed 8 --out $runs/weather_1100
out=$runs/qoi_gumbel_1100
for pass in first second; do
  $cli qoi --source surrogate --bundle $runs/gumbel \
      --weather $runs/weather_1100/weather.csv --k 10 --m 3 --seed 17 --out $out --force
  if [ $pass = first ]; then cp -r $out ${out}_first; fi
done
for f in yk_samples.csv rank_summary.csv summary.json; do
  cmp ${out}_first/$f $out/$f
done
grep -q '"qoi_result": 4' $out/manifest.json
# Without --mode, qoi draws in sample mode: the same files.
$cli qoi --source surrogate --bundle $runs/gumbel \
    --weather $runs/weather/weather.csv --k 10 --m 3 --seed 17 --out $runs/qoi_gumbel
for f in yk_samples.csv rank_summary.csv summary.json; do
  cmp $runs/qoi_gumbel_sample/$f $runs/qoi_gumbel/$f
done
$cli compare $runs/qoi_gumbel $runs/qoi_sim --out $runs/cmp
cp -r $runs/cmp $runs/cmp_first
$cli compare $runs/qoi_gumbel $runs/qoi_sim --out $runs/cmp --force
for f in report.json rank_comparison.csv yk_samples_combined.csv; do
  cmp $runs/cmp_first/$f $runs/cmp/$f
done
