"""Run a command with its stdout written to a file, print its peak RSS, and
fail when the peak RSS passes a bound.

    python peak_rss.py LIMIT_MB OUT -- CMD...

The peak is ru_maxrss over the waited-for children, so a command run under
timeout(1) counts.  Exits with the command's status when it fails, else 1
when the peak passes LIMIT_MB, else 0.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        sys.exit("usage: peak_rss.py LIMIT_MB OUT -- CMD...")
    limit, out, cmd = float(argv[0]), argv[1], argv[3:]
    with open(out, "w") as f:
        code = subprocess.run(cmd, stdout=f).returncode
    if code:
        return code
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print("%s: peak RSS %.0f MB" % (" ".join(cmd), rss))
    return int(rss > limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
