"""Record the stdout digests the cli-cold oracle compares against.

    python3 qbench/record_digests.py

Runs every command the cli-cold stream can draw, plus the reference
form of each defect probe, once in a fresh interpreter, checks its exit
code, and writes qbench/digests.json.  Rerun it only at a commit whose
CLI output is the accepted spec: the table pins CLI bytes.
"""

import hashlib
import json
import sys

from run import COMMAND_BUDGET, HERE, _command, run_child
import workloads


def main():
    commands = workloads.cli_pool_commands() + [
        (ref, 0) for pool in workloads.DEFECT_POOL.values()
        for _, ref in pool if ref is not None]
    digests, slow = {}, []
    for argv, expect in commands:
        code, seconds, out, err, killed = run_child(_command(argv),
                                                    COMMAND_BUDGET)
        if killed or code != expect or 'Traceback' in err:
            sys.exit(f'{argv}: exit {code}, expected {expect}, '
                     f'killed={killed}\n{err}')
        if code == 0:
            digests[json.dumps(argv)] = hashlib.sha256(out).hexdigest()
        slow.append((seconds, ' '.join(argv)))
    slow.sort(reverse=True)
    print('slowest:', *(f'{s:.2f}s {a}' for s, a in slow[:5]), sep='\n  ')
    if slow[0][0] > COMMAND_BUDGET / 2:
        sys.exit('a pool command takes more than half the command budget')
    with open(HERE / 'digests.json', 'w') as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write('\n')
    print(f'{len(digests)} digests written')


if __name__ == '__main__':
    main()
