"""Per-tuple instruction-cost constants for the operator inner loops.

These are the calibration constants of the reproduction's performance
model, playing the role of the instruction counts the paper measures
with functional simulation (section 6, "Performance model").  Each
constant counts the dynamic scalar ARM-like instructions of one inner-
loop iteration; they were set from the loop structure of the reference
radix-join code the paper builds on [Balkesen et al.] and sanity-checked
against the per-phase IPC/bandwidth figures the paper reports
(section 7.1).  Tests pin them so accidental drift is caught.
:func:`merge_passes_needed` counts the dataset passes a mergesort's
per-pass costs are charged for.
"""

# -- shared --------------------------------------------------------------

#: Load one 16 B tuple (two 8 B loads or one paired load + addressing).
TUPLE_LOAD = 2
#: Store one 16 B tuple.
TUPLE_STORE = 2
#: Hash a key to a bucket (mask/shift/multiply).
HASH_KEY = 3

# -- partitioning phase ----------------------------------------------------

#: Histogram update: load counter, increment, store (serial dependence
#: through memory on same-bucket collisions).
HIST_UPDATE = 3
#: Per-bucket prefix-sum step (runs over buckets, not tuples).
PREFIX_STEP = 3
#: Addressed data distribution: compute the exact destination address
#: from the per-(source,destination) cursor and bump it (a load-add-store
#: chain per tuple, the dependency bottleneck permutability removes).
ADDR_CALC = 8
#: Permutable data distribution: stream the tuple into the object buffer;
#: no address computation, no cursor chain.
PERM_STORE = 1

#: ILP exposed by the histogram/addressed-distribution loops (heavy
#: serial dependences through cursors; matches the ~0.98 IPC the paper
#: reports for the NMP partition loop on a 3-wide core).
PARTITION_DEP_ILP = 1.05

# -- scan ------------------------------------------------------------------

#: Compare a tuple's key against the searched value + loop overhead.
SCAN_CMP = 4
#: Scan loop ILP on scalar machines (branchy compare loop; calibrated to
#: the paper's 2.5 GB/s per NMP vault and 4.3 GB/s per CPU core).
SCAN_DEP_ILP = 1.1

# -- hash-based probe (CPU / NMP-rand) --------------------------------------

#: Insert one R tuple into the probe hash table (hash, slot load/claim,
#: store key+payload).
HT_BUILD = 8
#: Probe one S tuple: hash, fetch index range, compare keys in range,
#: emit the join result.
HT_PROBE = 12
#: Dependent random accesses per hash-table lookup: the index-range head
#: plus the range walk (bucket header, range entries, match).
PROBE_ACCESSES_PER_LOOKUP = 3.0
#: Aggregate-update one tuple into its group slot (six aggregate
#: functions: avg, count, min, max, sum, sum squared).
AGG_UPDATE = 14
#: Effective memory-level parallelism of hash-probe loops.  Bucket walks
#: are dependent chains, so the exploitable MLP is far below the OoO
#: window; 2.25 reproduces the paper's NMP-rand IPC of 0.24
#: (12 instructions over ~50 cycles per probe at 3 accesses x 37.6 ns).
PROBE_MEM_PARALLELISM = 2.25
#: ILP of hash-probe loops (issue side; the loops are memory bound).
PROBE_DEP_ILP = 2.0

# -- sort-based probe (NMP-seq / Mondrian) ----------------------------------

#: One merge step: compare stream heads, select, advance, store.
MERGE_STEP = 6
#: ILP of the scalar merge loop (serial through the comparison result;
#: matches the paper's NMP-seq IPC 0.95 on a 3-wide core).
MERGE_DEP_ILP = 1.3
#: Compare-exchange of the bitonic network (SIMD min/max + shuffle).
BITONIC_STEP = 3
#: The initial SIMD bitonic pass sorts runs of 16 tuples, replacing the
#: first four merge passes (paper section 5.2: "reduces the required
#: number of passes on the dataset by four").
BITONIC_RUN_TUPLES = 16
#: Merge fan-in per dataset pass.  The Mondrian unit's eight stream
#: buffers hold eight input streams at once, feeding an 8-to-1 SIMD
#: merge tree per pass (paper section 5.2's 8-streams-to-4 kernel is one
#: level of that tree; the remaining levels merge in-register before the
#: result is written out), so each dataset pass multiplies the run
#: length by 8.  Scalar machines merge pairwise.
MERGE_WAY_SIMD = 8
MERGE_WAY_SCALAR = 2
#: Final merge-join / merge-groupby pass per tuple.
MERGE_JOIN_STEP = 6
#: Sequential aggregation pass per tuple (sort-based Group by).
SEQ_AGG = 10

# -- quicksort (CPU sort probe) ---------------------------------------------

#: Per-element cost of one quicksort partition pass (compare + swap /2 +
#: loop overhead).
QUICKSORT_STEP = 9
QUICKSORT_DEP_ILP = 1.6

# -- hash tables -------------------------------------------------------------

#: Load factor the probe-phase hash tables are sized for.
HASH_TABLE_LOAD_FACTOR = 0.5
#: Bytes of one hash-table slot (key + payload).
HASH_SLOT_B = 16
#: Bytes of one group-by aggregation slot (key + 6 running aggregates).
GROUP_SLOT_B = 64


# -- pass counting ---------------------------------------------------------


def merge_passes_needed(n: int, initial_run: int = 1, way: int = 2) -> int:
    """Number of dataset passes a ``way``-way mergesort performs on ``n``
    elements starting from sorted runs of ``initial_run``.

    Each pass multiplies the run length by the merge fan-in: scalar
    machines merge pairwise (way=2, :data:`MERGE_WAY_SCALAR`); the
    Mondrian unit's eight stream buffers feed an 8-to-1 SIMD merge tree
    (way=8, :data:`MERGE_WAY_SIMD`), which is how the wide unit
    "absorbs the log n complexity bump" (paper section 7.1).
    """
    if n <= 1:
        return 0
    if initial_run < 1:
        raise ValueError("initial run must be >= 1")
    if way < 2:
        raise ValueError("merge fan-in must be >= 2")
    passes = 0
    run = initial_run
    while run < n:
        run *= way
        passes += 1
    return passes
