#!/usr/bin/env bash
# The CLI's budget and timing contract, one job a row: `expect TIMEOUT CODE
# ARGS...` runs `python -m p1height ARGS...` in a fresh process, which must
# exit with CODE within TIMEOUT seconds.  That is what pytest cannot check;
# each check of a job's output lives once in the tier-1 tests.  Run from a
# checkout with `bash .github/cli_contract.sh`; it exits 1 if any job fails.
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
failed=0

expect() {  # exit code 124 means the job ran into its timeout
    local code=0
    timeout "$1" python -m p1height "${@:3}" > /dev/null || code=$?
    if [ "$code" -eq "$2" ]; then printf 'ok  '; else printf 'FAIL'; failed=1; fi
    printf ' exit %s, expected %s within %s s: %.140s\n' "$code" "$2" "$1" "${*:3}"
}
sum8() { printf '%s' "$1"; for _ in 1 2 3 4 5 6 7; do printf ' + %s' "$1"; done; }

# sums of eight large expansions: the parser's work budget refuses each at its
# second term, well inside the timeout; without the budget the homogeneous sum
# goes on to a degree-2046 elimination that does not finish
expect 60 2 --map "F = $(sum8 "(X+Y+1)^1023"); G = Y^1023" --point 1
expect 60 2 --map "F = $(sum8 "(X+Y)^1023*(X-Y)^1023"); G = Y^2046" --point 1
# 4097 terms, about 71 kB and 33000 tokens, read in one pass: the elimination's
# budget refuses the pair in about 0.25 s with start-up; a parser that sliced
# its token list at every token read took 2.9 s on a 2-core x86_64 host
dense=$(python3 -c 'print(" + ".join(f"{j % 9 + 1}*X^{4096 - j}*Y^{j}" for j in range(4097)))')
expect 2 2 --map "F = $dense; G = Y^4096" --point 1
# the parser checks the degree each product and power forms, so the
# degree-3000 terms cancel and the square is of degree 4
expect 30 0 --map "F = ((X+Y)^3000 - (X+Y)^3000 + X*Y)^2; G = X^4 + Y^4" --point 3
# at or near the largest degrees the work budget accepts, run to the end:
# G = X*Y^1023 loses degree at Y = 1, so the elimination strips its leading
# zeros; with F and G swapped it first trades them, F having no X^d term
expect 30 0 --map "phi(z) = z^2048" --point 3 --terms 2
expect 30 0 --map "F = X^1024 + Y^1024; G = X*Y^1023" --point 3 --terms 2
expect 30 0 --map "F = X*Y^1023; G = X^1024 + Y^1024" --point 3 --terms 2
# the gcd loop runs of test_cli_g_sequence_is_the_library_runs_and_follows_the_exact_orbit:
# a reducer fed a value past its bound would spin, not fail, and time out
expect 60 0 --fixture ex1 --terms 50 --emit-g-sequence --format json
expect 60 0 --fixture ex2 --terms 50 --emit-g-sequence --format json
expect 60 0 --fixture ex3 --terms 100 --emit-g-sequence --format json
expect 60 0 --fixture ex4 --terms 100 --emit-g-sequence --format json
expect 60 0 --map "F = 9*X^14 - 3*X^12*Y^2 + 3*X^11*Y^3 - 4*X^10*Y^4 - 5*X^9*Y^5 - 9*X^8*Y^6 - 9*X^7*Y^7 + 3*X^6*Y^8 - 5*X^5*Y^9 + 8*X^4*Y^10 - 8*X^3*Y^11 + 9*X^2*Y^12 + 3*X*Y^13 - Y^14; G = -5*X^14 - 7*X^13*Y + 5*X^12*Y^2 - 9*X^10*Y^4 - 8*X^9*Y^5 + 8*X^8*Y^6 - 8*X^7*Y^7 + 7*X^6*Y^8 - 5*X^5*Y^9 - 8*X^4*Y^10 - X^3*Y^11 - 6*X^2*Y^12 + 4*X*Y^13 - 7*Y^14" --point "[-8, 1]" --terms 10 --emit-g-sequence --format json
# ex4's loop stops after 4 steps, once its orbit mod |Res| cycles; all 400 steps
# at the 307066-bit top modulus took 13.4 s on a 2-core x86_64 host
expect 5 0 --fixture ex4 --terms 400 --emit-g-sequence --format json
# the oracle charges each iterate to the work budget before it runs, so this
# exits 4 at once; checking after the work would run ex2's seventh iterate
# (about 13 s) into the timeout
expect 10 4 --fixture ex2 --terms 8 --oracle 8
# README's boundaries: ex3 keeps iterate 10 and ex4 iterate 9, and the next
# iterate of each passes the work budget and exits 4 unevaluated
expect 30 0 --fixture ex3 --terms 8 --oracle 10
expect 30 4 --fixture ex3 --terms 8 --oracle 11
expect 30 0 --fixture ex4 --terms 8 --oracle 9
expect 30 4 --fixture ex4 --terms 8 --oracle 10
# 100000 iterates whose coordinates stay small: the oracle divides by the odd
# part of d^n and shifts; converting d^n itself grows about cubically
expect 30 0 --map "phi(z) = z^2" --point "[0, 1]" --terms 8 --oracle 100000 --format json
# at [c, 1], c = 2^80, the forms cancel from size 1 down to about 2^-160; the
# guard bits from the cofactor lower bound on the norm keep each norm to 2^-64
# of itself, so the height lies within its error bound
expect 30 0 --map "F = X*(X - 1208925819614629174706176*Y)^2 + Y^3; G = Y*((X - 1208925819614629174706176*Y)^2 + 2*Y^2)" --point "[1208925819614629174706176, 1]" --terms 5 --precision 64
# the small coordinate of u_n, about 2^(-2^n), falls to 0 in fixed point within
# about log2(p) steps, so 2000 terms cost any 2000 steps of a quadratic map
expect 30 0 --map "F = X^2 + Y^2; G = Y^2" --point "[2, 1]" --terms 2000 --format json
exit "$failed"
