"""The closed loop shared by every workload (standard library only)."""

import time


def run_rounds(cases, run_one, seconds):
    """Run whole rounds over `cases` for about `seconds`.

    The first round is timed and the run makes max(1, round(seconds /
    first_round)) rounds in all, so every round holds the same mix of cases.
    run_one(case, round_index) runs one operation and returns its record;
    the record gets its wall time under "seconds".  Returns (records,
    elapsed seconds, rounds).
    """
    records = []
    n = target = 0
    start = time.perf_counter()
    while True:
        for case in cases:
            t0 = time.perf_counter()
            rec = run_one(case, n)
            rec["seconds"] = time.perf_counter() - t0
            records.append(rec)
        n += 1
        if not target:
            target = max(1, round(seconds / (time.perf_counter() - start)))
        if n >= target:
            return records, time.perf_counter() - start, n
