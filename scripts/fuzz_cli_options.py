#!/usr/bin/env python3
"""Fuzz tapo_cli's numeric options with edge values.

Reads the options from `tapo_cli --help` and keeps those whose default is a
number, so an option added to the CLI is fuzzed without editing this script.
Runs every subcommand once per (numeric option, value) pair, with the value
one of -1, 0, 1, nan, inf, 1e9, 1000000000 and abc, on a 10-node data
center; a subcommand that does not read the option runs with its default.
Each run gets a 4 GB address-space limit (`ulimit -v 4000000`) and 20
seconds. The only acceptable outcomes are the documented exit codes: 0
success, 1 infeasible instance, 2 bad input. An abort (134), a crash or a
timeout fails the run, and the script prints one line per failing case.

Exit status 0 when every run exits 0, 1 or 2, 1 otherwise. Stdlib only.

Usage: scripts/fuzz_cli_options.py [path/to/tapo_cli]
"""
import concurrent.futures
import re
import subprocess
import sys

VALUES = ("-1", "0", "1", "nan", "inf", "1e9", "1000000000", "abc")
COMMANDS = ("bounds", "assign", "simulate", "powermin", "sweep", "trace")
# simulate reads the re-plan delay and threshold only with the re-planner on.
CONTEXT = {"replan-delay": ["--replan-cadence=5"],
           "replan-threshold": ["--replan-cadence=5"]}
# The shell applies the limit and then becomes tapo_cli, so the exit status
# and the timeout's kill are tapo_cli's own.
LIMITED = ["sh", "-c", 'ulimit -v 4000000 && exec "$0" "$@"']
TIMEOUT_S = 20
# Two runs at a time keep each run well inside TIMEOUT_S on a shared host.
JOBS = 2
OK_EXITS = (0, 1, 2)
# One `--help` line per option: "  --name=<value>   (default: X)".
HELP_OPTION = re.compile(r"^\s+--([a-z-]+)=<value>\s+\(default: (.*)\)$")


def numeric_options(cli):
    usage = subprocess.run([cli, "--help"], capture_output=True, text=True,
                           check=True).stdout
    options = []
    for line in usage.splitlines():
        match = HELP_OPTION.match(line)
        if not match:
            continue
        try:
            float(match.group(2))
        except ValueError:
            continue
        options.append(match.group(1))
    return options


def run(cli, command, option, value):
    size = [] if option == "nodes" else ["--nodes=10"]
    args = [command, *size, *CONTEXT.get(option, []), f"--{option}={value}"]
    try:
        status = subprocess.run(LIMITED + [cli] + args,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        status = "timeout"
    return " ".join(args), status


def main(argv):
    cli = argv[0] if argv else "build/tools/tapo_cli"
    options = numeric_options(cli)
    if not options:
        print(f"no numeric options in `{cli} --help`")
        return 1
    cases = [(command, option, value)
             for command in COMMANDS
             for option in options
             for value in VALUES]
    failures = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        for line, status in pool.map(lambda c: run(cli, *c), cases):
            if status not in OK_EXITS:
                failures += 1
                # A negative status is the signal that ended the run.
                print(f"FAIL exit {status}: tapo_cli {line}", flush=True)
    print(f"{len(cases)} runs over {len(options)} numeric options "
          f"({', '.join(options)}), {failures} outside exit codes "
          f"{', '.join(map(str, OK_EXITS))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
