"""The benchmark's own mini-C kernels.

These are deliberate copies of the two built-in kernels the CLI offers
(``fleet-micro`` and ``parallel-micro``), kept here so the benchmark does
not depend on private names of ``repro.__main__`` and so that editing a
CLI demo can never silently change what the benchmark measures.  The
input size is read from stdin, which lets each workload pick its own.
"""

#: A hot kernel invoked three times per run (nested loops, so it always
#: stays a single-server offload target).
FLEET_MICRO_SRC = r"""
int *data;
int n;

int crunch(void) {
    int i, r, acc = 0;
    for (r = 0; r < 40; r++) {
        for (i = 0; i < n; i++) {
            acc += (data[i] * 31 + r) ^ (acc >> 3);
        }
    }
    return acc;
}

int main() {
    int i, k;
    scanf("%d", &n);
    data = (int*) malloc(n * sizeof(int));
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    for (k = 0; k < 3; k++) printf("crunched %d\n", crunch());
    return 0;
}
"""
FLEET_MICRO_TARGET = "crunch"

#: A data-parallel kernel: one flat loop with disjoint element writes,
#: the shape the shard analysis accepts, so ``shards > 1`` scatters it.
PARALLEL_MICRO_SRC = r"""
int data[8192];
int out[8192];
int n;

void smooth(void) {
    int i;
    for (i = 0; i < n; i++) {
        int v = data[i];
        v = v * 31 + (v >> 3);
        v ^= v << 7;
        v += v >> 11;
        v = v * 1103515245 + 12345;
        v ^= v >> 13;
        v = v * 69069 + 1;
        v ^= v << 3;
        v += (v >> 2) ^ (v << 9);
        v = v * 2654435761 + 40503;
        v ^= v >> 17;
        v += (v << 5) - v;
        v = v * 22695477 + 1;
        v ^= v >> 7;
        v += (v >> 4) ^ (v << 11);
        v = v * 134775813 + 1;
        v ^= v << 13;
        out[i] = (v ^ (v >> 5)) + i;
    }
}

int main() {
    int i, acc = 0;
    scanf("%d", &n);
    for (i = 0; i < n; i++) data[i] = i * 7 + 3;
    smooth();
    for (i = 0; i < n; i++) acc += out[i];
    printf("smoothed %d\n", acc);
    return 0;
}
"""
PARALLEL_MICRO_TARGET = "smooth"
