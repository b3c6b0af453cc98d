#!/usr/bin/env python
"""The paper's Fig. 6 worked example, end to end.

Five links, five flows, one silently-failing link (I2<->D2).  007's
votes concentrate on the shared middle link; Flock's MLE explains the
evidence with exactly the right link.

Run:  python examples/worked_example.py
"""

from repro.eval.reporting import print_result
from repro.eval.spec import run_experiment


def main():
    print("network:  S1,S2 -- I1 -- I2 -- D1,D2 ; I2<->D2 drops ~5%")
    print("flows:    S1->D2 543/10K bad, S2->D2 461/10K bad,")
    print("          S1->D1 2/10K, S2->D1 0/10K, S1->S2 0/10K")
    print_result(run_experiment("fig6"))


if __name__ == "__main__":
    main()
