/*
 * Native slab preprocessor for repro.sat.preprocess.preprocess().
 *
 * This file is a line-for-line port of the reference pass (_Preprocessor in
 * preprocess.py): top-level unit propagation, subsumption and
 * self-subsuming resolution, bounded variable elimination, failed-literal
 * probing and the optional blocked-clause pass, driven by the same round
 * loop.  Every iteration order matches the reference, so both produce the
 * same output clauses (clause and literal order), elimination stack,
 * blocked records, unsat flag and statistics.
 *
 * The order contract: an occurrence list holds clause ids in insertion
 * order, and ids only enter a list when their clause is created, so every
 * list is sorted by clause id.  Here a removed clause stays in its lists
 * until the next scan compacts them (lazy deletion, `live` counts the rest);
 * a strengthened literal leaves its list at once.
 *
 * Variables are renumbered densely in increasing order, so every ordering
 * the reference takes over variables or signed literals (elimination
 * candidates, resolvent literals, probe ranks, output units) carries over;
 * clause signatures hash the original variable numbers.
 *
 * One call does the whole pass: pp_run() takes the flat input clauses and
 * returns a Result holding the flat output; pp_free() releases it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_SUBSUMER_LEN 20 /* _subsumption_pass(max_clause_len) */

enum {
    S_CLAUSES_IN,
    S_CLAUSES_OUT,
    S_UNITS_DERIVED,
    S_CLAUSES_SUBSUMED,
    S_LITERALS_STRENGTHENED,
    S_CLAUSES_BLOCKED,
    S_VARIABLES_ELIMINATED,
    S_RESOLVENTS_ADDED,
    S_PROBES,
    S_FAILED_LITERALS,
    S_ROUNDS,
    NUM_STATS
};

enum {
    P_MAX_ROUNDS,
    P_SUBSUMPTION,
    P_ELIMINATION,
    P_PROBING,
    P_BLOCKED,
    P_BVE_CLAUSE_LIMIT,
    P_BVE_OCCURRENCE_LIMIT,
    P_BCE_OCCURRENCE_LIMIT,
    P_PROBE_LIMIT,
    P_PROBE_VISIT_BUDGET,
    P_FROZEN_CUTOFF,
    NUM_PARAMS
};

/* The outcome, read field by field by the Python wrapper.  One clause
 * table (clause i is lits[ends[i-1]..ends[i])) holds, in order, the clauses
 * of every elimination record, every blocked clause and the output clauses
 * (stats[S_CLAUSES_OUT] of them).  Table literals are literal indices;
 * names maps each index to its literal in the original variable space, so
 * the wrapper creates one Python int per distinct literal rather than one
 * per occurrence.  elim holds (var, end) per record: its clauses end at
 * table index `end`; blocked holds the blocking literal per blocked clause
 * (both original). */
typedef struct {
    int64_t unsat;
    int64_t stats[NUM_STATS];
    int64_t num_lits, num_clauses, num_elim, num_blocked, num_names;
    int32_t *lits, *ends, *elim, *blocked, *names;
} Result;

typedef struct {
    int32_t *data;
    int64_t len, cap;
} IVec;

typedef struct {
    int32_t *data; /* clause ids, ascending */
    int32_t len, cap;
    int32_t live; /* entries whose clause is not removed */
} Occ;

typedef struct {
    int64_t key;
    int32_t lit;
} Ranked;

typedef struct {
    const int64_t *params;
    int64_t *stats;
    int unsat;
    int32_t num_vars;
    int32_t *orig;   /* dense variable -> original variable */
    uint8_t *frozen; /* frozen set or <= frozen_cutoff */
    int8_t *fixed;   /* 0 unassigned, +1 true, -1 false */
    /* 1 when the last elimination attempt on the variable failed and no
     * clause containing it changed since: a retry would fail again. */
    uint8_t *settled;
    /* clause database: literals of clause c are arena[start[c]..+len[c]) */
    IVec arena;
    int64_t *start;
    int32_t *len;
    uint8_t *dead;
    uint64_t *sig;
    int64_t num_clauses, clause_cap;
    Occ *occ;       /* per literal index */
    uint32_t *mark; /* per literal index: membership stamps */
    uint32_t stamp;
    uint32_t *assigned; /* per variable: probe stamps */
    int8_t *value;      /* per variable: value within the current probe */
    uint32_t probe_stamp;
    IVec unit_queue, touched;
    /* Scratch, never live in two roles at once: queue is the subsumption
     * pass's current batch, a probe's BFS queue or the BCE stack; found
     * holds find_subsumed() hits, buffer add_clause()'s cleaned copy. */
    IVec queue, found, buffer, pos, neg, rest;
    IVec res_lits, res_lens;
    IVec lits, ends, elim, blocked; /* the Result buffers */
} PP;

/* ------------------------------------------------------------------ */
/* Helpers                                                             */
/* ------------------------------------------------------------------ */
static void *xrealloc(void *ptr, size_t size) {
    void *out = realloc(ptr, size ? size : 1);
    if (!out)
        abort();
    return out;
}

static void *xcalloc(size_t count, size_t size) {
    void *out = calloc(count ? count : 1, size);
    if (!out)
        abort();
    return out;
}

static void ivec_reserve(IVec *v, int64_t need) {
    if (need <= v->cap)
        return;
    int64_t cap = v->cap ? v->cap : 16;
    while (cap < need)
        cap *= 2;
    v->data = xrealloc(v->data, (size_t)cap * sizeof(int32_t));
    v->cap = cap;
}

static inline void ivec_push(IVec *v, int32_t x) {
    if (v->len == v->cap)
        ivec_reserve(v, v->len + 1);
    v->data[v->len++] = x;
}

static inline int32_t iabs(int32_t x) { return x > 0 ? x : -x; }

static inline int64_t lidx(int32_t lit) {
    return lit > 0 ? 2 * (int64_t)lit : -2 * (int64_t)lit + 1;
}

static inline int32_t original(const PP *p, int32_t lit) {
    return lit > 0 ? p->orig[lit] : -p->orig[-lit];
}

static inline int32_t *lits_of(PP *p, int32_t cid) {
    return p->arena.data + p->start[cid];
}

static uint32_t next_stamp(PP *p) {
    if (++p->stamp == 0) {
        memset(p->mark, 0, (size_t)(2 * ((int64_t)p->num_vars + 1)) * sizeof(uint32_t));
        p->stamp = 1;
    }
    return p->stamp;
}

static uint64_t signature(const PP *p, const int32_t *lits, int32_t n) {
    uint64_t sig = 0;
    for (int32_t i = 0; i < n; i++)
        sig |= (uint64_t)1 << (p->orig[iabs(lits[i])] % 61);
    return sig;
}

static void occ_push(Occ *o, int32_t cid) {
    if (o->len == o->cap) {
        int32_t cap = o->cap ? 2 * o->cap : 4;
        o->data = xrealloc(o->data, (size_t)cap * sizeof(int32_t));
        o->cap = cap;
    }
    o->data[o->len++] = cid;
    o->live++;
}

/* Drop removed clauses from the list; call only while no scan of it runs. */
static Occ *occ_scan(PP *p, int32_t lit) {
    Occ *o = &p->occ[lidx(lit)];
    if (o->len != o->live) {
        int32_t kept = 0;
        for (int32_t i = 0; i < o->len; i++)
            if (!p->dead[o->data[i]])
                o->data[kept++] = o->data[i];
        o->len = kept;
    }
    return o;
}

static void occ_clear(PP *p, int32_t lit) {
    Occ *o = &p->occ[lidx(lit)];
    o->len = 0;
    o->live = 0;
}

/* Remove clause id *cid* from the (sorted) list of *lit*. */
static void occ_discard(PP *p, int32_t lit, int32_t cid) {
    Occ *o = &p->occ[lidx(lit)];
    int32_t lo = 0, hi = o->len;
    while (lo < hi) {
        int32_t mid = lo + (hi - lo) / 2;
        if (o->data[mid] < cid)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < o->len && o->data[lo] == cid) {
        memmove(o->data + lo, o->data + lo + 1, (size_t)(o->len - lo - 1) * sizeof(int32_t));
        o->len--;
        o->live--;
    }
}

/* ------------------------------------------------------------------ */
/* Clause database                                                     */
/* ------------------------------------------------------------------ */
static void add_clause(PP *p, const int32_t *literals, int64_t n) {
    IVec *out = &p->buffer;
    uint32_t seen = next_stamp(p);
    out->len = 0;
    for (int64_t i = 0; i < n; i++) {
        int32_t lit = literals[i];
        if (p->mark[lidx(-lit)] == seen)
            return; /* tautology */
        if (p->mark[lidx(lit)] == seen)
            continue;
        int8_t value = p->fixed[iabs(lit)];
        if (value) {
            if ((lit > 0) == (value > 0))
                return; /* satisfied by a fixed variable */
            continue;   /* falsified literal dropped */
        }
        p->mark[lidx(lit)] = seen;
        ivec_push(out, lit);
    }
    if (!out->len) {
        p->unsat = 1;
        return;
    }
    if (p->num_clauses == p->clause_cap) {
        int64_t cap = p->clause_cap ? 2 * p->clause_cap : 64;
        p->start = xrealloc(p->start, (size_t)cap * sizeof(int64_t));
        p->len = xrealloc(p->len, (size_t)cap * sizeof(int32_t));
        p->dead = xrealloc(p->dead, (size_t)cap);
        p->sig = xrealloc(p->sig, (size_t)cap * sizeof(uint64_t));
        p->clause_cap = cap;
    }
    int32_t cid = (int32_t)p->num_clauses++;
    int32_t size = (int32_t)out->len;
    p->start[cid] = p->arena.len;
    p->len[cid] = size;
    p->dead[cid] = 0;
    p->sig[cid] = signature(p, out->data, size);
    ivec_reserve(&p->arena, p->arena.len + size);
    memcpy(p->arena.data + p->arena.len, out->data, (size_t)size * sizeof(int32_t));
    p->arena.len += size;
    for (int32_t i = 0; i < size; i++) {
        occ_push(&p->occ[lidx(out->data[i])], cid);
        p->settled[iabs(out->data[i])] = 0;
    }
    if (size == 1)
        ivec_push(&p->unit_queue, out->data[0]);
    else
        ivec_push(&p->touched, cid);
}

static void remove_clause(PP *p, int32_t cid) {
    if (p->dead[cid])
        return;
    p->dead[cid] = 1;
    int32_t *lits = lits_of(p, cid);
    for (int32_t i = 0; i < p->len[cid]; i++) {
        p->occ[lidx(lits[i])].live--;
        p->settled[iabs(lits[i])] = 0;
    }
}

/* Remove *lit* from clause *cid*.  The propagation loop clears the whole
 * list of *lit* afterwards and passes keep_occ to skip the discard. */
static void strengthen(PP *p, int32_t cid, int32_t lit, int keep_occ) {
    if (p->dead[cid])
        return;
    int32_t *lits = lits_of(p, cid);
    int32_t n = p->len[cid];
    for (int32_t k = 0; k < n; k++)
        p->settled[iabs(lits[k])] = 0;
    int32_t i = 0;
    while (lits[i] != lit)
        i++;
    memmove(lits + i, lits + i + 1, (size_t)(n - i - 1) * sizeof(int32_t));
    n = --p->len[cid];
    if (!keep_occ)
        occ_discard(p, lit, cid);
    if (!n) {
        p->unsat = 1;
        return;
    }
    p->sig[cid] = signature(p, lits, n);
    if (n == 1)
        ivec_push(&p->unit_queue, lits[0]);
    else
        ivec_push(&p->touched, cid);
}

/* Append clause *cid* to the result's clause table. */
static void emit_clause(PP *p, int32_t cid) {
    const int32_t *lits = lits_of(p, cid);
    ivec_reserve(&p->lits, p->lits.len + p->len[cid]);
    for (int32_t i = 0; i < p->len[cid]; i++)
        p->lits.data[p->lits.len++] = (int32_t)lidx(lits[i]);
    ivec_push(&p->ends, (int32_t)p->lits.len);
}

/* ------------------------------------------------------------------ */
/* Unit propagation                                                    */
/* ------------------------------------------------------------------ */
static void propagate_units(PP *p) {
    while (p->unit_queue.len && !p->unsat) {
        int32_t lit = p->unit_queue.data[--p->unit_queue.len];
        int32_t var = iabs(lit);
        int8_t value = lit > 0 ? 1 : -1;
        if (p->fixed[var]) {
            if (p->fixed[var] != value)
                p->unsat = 1;
            continue;
        }
        p->fixed[var] = value;
        p->stats[S_UNITS_DERIVED]++;
        Occ *sat = occ_scan(p, lit);
        for (int32_t i = 0; i < sat->len; i++)
            remove_clause(p, sat->data[i]);
        occ_clear(p, lit);
        Occ *falsified = occ_scan(p, -lit);
        for (int32_t i = 0; i < falsified->len; i++)
            strengthen(p, falsified->data[i], -lit, 1);
        occ_clear(p, -lit);
    }
}

/* ------------------------------------------------------------------ */
/* Subsumption / self-subsuming resolution                             */
/* ------------------------------------------------------------------ */
/* Collect into p->found the live clauses (other than *skip*) that contain
 * all of *lits*, scanning the shortest occurrence list. */
static void find_subsumed(PP *p, const int32_t *lits, int32_t n, uint64_t sig,
                          int32_t skip) {
    p->found.len = 0;
    int32_t best = 0, best_count = -1;
    for (int32_t i = 0; i < n; i++) {
        int32_t count = p->occ[lidx(lits[i])].live;
        if (count == 0)
            return;
        if (best_count < 0 || count < best_count) {
            best = lits[i];
            best_count = count;
        }
    }
    uint32_t member = next_stamp(p);
    for (int32_t i = 0; i < n; i++)
        p->mark[lidx(lits[i])] = member;
    Occ *o = occ_scan(p, best);
    for (int32_t k = 0; k < o->len; k++) {
        int32_t cid = o->data[k];
        if (cid == skip || p->len[cid] < n || (sig & ~p->sig[cid]))
            continue;
        const int32_t *clause = lits_of(p, cid);
        int32_t hits = 0;
        for (int32_t i = 0; i < p->len[cid]; i++)
            hits += p->mark[lidx(clause[i])] == member;
        if (hits == n)
            ivec_push(&p->found, cid);
    }
}

static void subsumption_pass(PP *p) {
    while (p->touched.len && !p->unsat) {
        IVec queue = p->touched;
        p->touched = p->queue;
        p->touched.len = 0;
        p->queue = queue;
        for (int64_t k = 0; k < p->queue.len; k++) {
            int32_t did = p->queue.data[k];
            if (p->unit_queue.len)
                propagate_units(p);
            if (p->unsat)
                return;
            if (p->dead[did] || p->len[did] > MAX_SUBSUMER_LEN)
                continue;
            int32_t n = p->len[did];
            uint64_t sig = p->sig[did];
            int32_t clause[MAX_SUBSUMER_LEN];
            memcpy(clause, lits_of(p, did), (size_t)n * sizeof(int32_t));
            find_subsumed(p, clause, n, sig, did);
            for (int64_t i = 0; i < p->found.len; i++) {
                remove_clause(p, p->found.data[i]);
                p->stats[S_CLAUSES_SUBSUMED]++;
            }
            /* Self-subsuming resolution: a superset of the clause with one
             * literal flipped drops the flipped literal. */
            for (int32_t index = 0; index < n; index++) {
                int32_t lit = clause[index];
                clause[index] = -lit;
                find_subsumed(p, clause, n, sig, did);
                clause[index] = lit;
                for (int64_t i = 0; i < p->found.len; i++) {
                    strengthen(p, p->found.data[i], -lit, 0);
                    p->stats[S_LITERALS_STRENGTHENED]++;
                }
                if (p->dead[did])
                    break;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Bounded variable elimination                                        */
/* ------------------------------------------------------------------ */
static int by_key_then_lit(const void *a, const void *b) {
    const Ranked *x = a, *y = b;
    if (x->key != y->key)
        return x->key < y->key ? -1 : 1;
    return (x->lit > y->lit) - (x->lit < y->lit);
}

static void copy_live(PP *p, int32_t lit, IVec *out) {
    Occ *o = occ_scan(p, lit);
    out->len = 0;
    ivec_reserve(out, o->len);
    memcpy(out->data, o->data, (size_t)o->len * sizeof(int32_t));
    out->len = o->len;
}

/* Collect the non-tautological resolvents of *var* (pos x neg) into
 * res_lits/res_lens.  Returns 0 as soon as one exceeds the clause limit or
 * they outnumber the clauses they would replace. */
static int collect_resolvents(PP *p, int32_t var) {
    int64_t clause_limit = p->params[P_BVE_CLAUSE_LIMIT];
    int64_t limit = p->pos.len + p->neg.len;
    p->res_lits.len = 0;
    p->res_lens.len = 0;
    for (int64_t a = 0; a < p->pos.len; a++) {
        int32_t pcid = p->pos.data[a];
        const int32_t *pos_clause = lits_of(p, pcid);
        uint32_t in_rest = next_stamp(p);
        p->rest.len = 0;
        for (int32_t i = 0; i < p->len[pcid]; i++)
            if (pos_clause[i] != var) {
                ivec_push(&p->rest, pos_clause[i]);
                p->mark[lidx(pos_clause[i])] = in_rest;
            }
        for (int64_t b = 0; b < p->neg.len; b++) {
            int32_t ncid = p->neg.data[b];
            const int32_t *neg_clause = lits_of(p, ncid);
            int32_t n = p->len[ncid];
            int tautology = 0;
            int64_t size = p->rest.len;
            for (int32_t i = 0; i < n; i++) {
                int32_t lit = neg_clause[i];
                if (lit == -var)
                    continue;
                if (p->mark[lidx(-lit)] == in_rest) {
                    tautology = 1;
                    break;
                }
                size += p->mark[lidx(lit)] != in_rest;
            }
            if (tautology)
                continue;
            if (size > clause_limit)
                return 0;
            /* sorted(merged_set): insertion sort by signed literal */
            int64_t base = p->res_lits.len;
            ivec_reserve(&p->res_lits, base + size);
            int32_t *res = p->res_lits.data + base;
            int64_t m = 0;
            for (int64_t i = 0; i < p->rest.len; i++)
                res[m++] = p->rest.data[i];
            for (int32_t i = 0; i < n; i++)
                if (neg_clause[i] != -var && p->mark[lidx(neg_clause[i])] != in_rest)
                    res[m++] = neg_clause[i];
            for (int64_t i = 1; i < m; i++) {
                int32_t x = res[i];
                int64_t j = i;
                while (j > 0 && res[j - 1] > x) {
                    res[j] = res[j - 1];
                    j--;
                }
                res[j] = x;
            }
            p->res_lits.len = base + m;
            ivec_push(&p->res_lens, (int32_t)m);
            if (p->res_lens.len > limit)
                return 0;
        }
    }
    return 1;
}

static int eliminate_pass(PP *p) {
    Ranked *candidates = xrealloc(NULL, (size_t)(p->num_vars + 1) * sizeof(Ranked));
    int64_t count = 0;
    for (int32_t var = 1; var <= p->num_vars; var++) {
        int64_t total = (int64_t)p->occ[lidx(var)].live + p->occ[lidx(-var)].live;
        if (total && !p->frozen[var]) {
            candidates[count].key = total;
            candidates[count].lit = var;
            count++;
        }
    }
    qsort(candidates, (size_t)count, sizeof(Ranked), by_key_then_lit);
    int64_t occurrence_limit = p->params[P_BVE_OCCURRENCE_LIMIT];
    int changed = 0;
    for (int64_t c = 0; c < count; c++) {
        if (p->unsat)
            break;
        int32_t var = candidates[c].lit;
        if (p->fixed[var] || p->settled[var])
            continue;
        copy_live(p, var, &p->pos);
        copy_live(p, -var, &p->neg);
        if (!p->pos.len && !p->neg.len)
            continue;
        if ((p->pos.len > occurrence_limit && p->neg.len > occurrence_limit) ||
            !collect_resolvents(p, var)) {
            p->settled[var] = 1;
            continue;
        }
        /* Reconstruction record, in the original variable space. */
        for (int side = 0; side < 2; side++) {
            IVec *cids = side ? &p->neg : &p->pos;
            for (int64_t k = 0; k < cids->len; k++) {
                emit_clause(p, cids->data[k]);
                remove_clause(p, cids->data[k]);
            }
        }
        ivec_push(&p->elim, p->orig[var]);
        ivec_push(&p->elim, (int32_t)p->ends.len);
        occ_clear(p, var);
        occ_clear(p, -var);
        p->stats[S_VARIABLES_ELIMINATED]++;
        int64_t offset = 0;
        for (int64_t r = 0; r < p->res_lens.len; r++) {
            add_clause(p, p->res_lits.data + offset, p->res_lens.data[r]);
            offset += p->res_lens.data[r];
            p->stats[S_RESOLVENTS_ADDED]++;
        }
        if (p->unit_queue.len)
            propagate_units(p);
        changed = 1;
    }
    free(candidates);
    return changed;
}

/* ------------------------------------------------------------------ */
/* Failed-literal probing                                              */
/* ------------------------------------------------------------------ */
/* Assume *root* and unit-propagate over the clause database; returns 1 when
 * the assumption fails.  *visits* accumulates the clause lengths scanned. */
static int probe_one(PP *p, int32_t root, int64_t *visits, int64_t budget) {
    if (++p->probe_stamp == 0) {
        memset(p->assigned, 0, (size_t)(p->num_vars + 1) * sizeof(uint32_t));
        p->probe_stamp = 1;
    }
    uint32_t now = p->probe_stamp;
    IVec *queue = &p->queue;
    queue->len = 0;
    ivec_push(queue, root);
    for (int64_t head = 0; head < queue->len;) {
        int32_t lit = queue->data[head++];
        int32_t var = iabs(lit);
        int8_t value = lit > 0 ? 1 : -1;
        if (p->assigned[var] == now) {
            if (p->value[var] != value)
                return 1;
            continue;
        }
        p->assigned[var] = now;
        p->value[var] = value;
        Occ *o = occ_scan(p, -lit);
        for (int32_t k = 0; k < o->len; k++) {
            int32_t cid = o->data[k];
            const int32_t *clause = lits_of(p, cid);
            int32_t n = p->len[cid];
            *visits += n;
            int32_t unassigned = 0, unassigned_count = 0;
            int satisfied = 0;
            for (int32_t i = 0; i < n; i++) {
                int32_t other = clause[i];
                if (other == -lit)
                    continue;
                int32_t other_var = iabs(other);
                if (p->assigned[other_var] != now) {
                    unassigned_count++;
                    unassigned = other;
                    if (unassigned_count > 1)
                        break;
                } else if ((other > 0) == (p->value[other_var] > 0)) {
                    satisfied = 1;
                    break;
                }
            }
            if (satisfied || unassigned_count > 1)
                continue;
            if (unassigned_count == 0)
                return 1;
            ivec_push(queue, unassigned);
        }
        if (*visits > budget)
            break;
    }
    return 0;
}

static void probe_pass(PP *p) {
    /* Rank probe literals by the binary-clause occurrences of their
     * complement: (-score, literal). */
    int64_t num_lits = 2 * ((int64_t)p->num_vars + 1);
    int32_t *score = xcalloc((size_t)num_lits, sizeof(int32_t));
    for (int32_t cid = 0; cid < p->num_clauses; cid++) {
        if (p->dead[cid] || p->len[cid] != 2)
            continue;
        const int32_t *lits = lits_of(p, cid);
        score[lidx(-lits[0])]++;
        score[lidx(-lits[1])]++;
    }
    Ranked *ranked = xrealloc(NULL, (size_t)num_lits * sizeof(Ranked));
    int64_t count = 0;
    for (int32_t var = 1; var <= p->num_vars; var++)
        for (int sign = 0; sign < 2; sign++) {
            int32_t lit = sign ? -var : var;
            if (score[lidx(lit)]) {
                ranked[count].key = -(int64_t)score[lidx(lit)];
                ranked[count].lit = lit;
                count++;
            }
        }
    free(score);
    qsort(ranked, (size_t)count, sizeof(Ranked), by_key_then_lit);
    int64_t max_probes = p->params[P_PROBE_LIMIT];
    int64_t budget = p->params[P_PROBE_VISIT_BUDGET];
    /* ranked[:max_probes], with Python's slice semantics */
    int64_t end = max_probes >= 0 ? (max_probes < count ? max_probes : count)
                                  : (count + max_probes > 0 ? count + max_probes : 0);
    int64_t visits = 0;
    for (int64_t k = 0; k < end; k++) {
        int32_t lit = ranked[k].lit;
        if (p->unsat || visits > budget || -ranked[k].key < 2)
            break;
        if (p->fixed[iabs(lit)])
            continue;
        int failed = probe_one(p, lit, &visits, budget);
        p->stats[S_PROBES]++;
        if (failed) {
            p->stats[S_FAILED_LITERALS]++;
            ivec_push(&p->unit_queue, -lit);
            propagate_units(p);
        }
    }
    free(ranked);
}

/* ------------------------------------------------------------------ */
/* Blocked-clause elimination                                          */
/* ------------------------------------------------------------------ */
/* Whether every resolvent of clause *cid* on *lit* is tautological. */
static int blocked_on(PP *p, int32_t cid, int32_t lit) {
    uint32_t complement = next_stamp(p);
    const int32_t *clause = lits_of(p, cid);
    for (int32_t i = 0; i < p->len[cid]; i++)
        if (clause[i] != lit)
            p->mark[lidx(-clause[i])] = complement;
    Occ *o = occ_scan(p, -lit);
    for (int32_t k = 0; k < o->len; k++) {
        int32_t other = o->data[k];
        const int32_t *lits = lits_of(p, other);
        int clash = 0;
        for (int32_t i = 0; i < p->len[other] && !clash; i++)
            clash = p->mark[lidx(lits[i])] == complement;
        if (!clash)
            return 0;
    }
    return 1;
}

static void bce_pass(PP *p) {
    IVec *queue = &p->queue;
    uint8_t *in_queue = xcalloc((size_t)p->num_clauses, 1);
    int64_t occurrence_limit = p->params[P_BCE_OCCURRENCE_LIMIT];
    queue->len = 0;
    for (int32_t cid = 0; cid < p->num_clauses; cid++)
        if (!p->dead[cid]) {
            ivec_push(queue, cid);
            in_queue[cid] = 1;
        }
    while (queue->len && !p->unsat) {
        int32_t cid = queue->data[--queue->len];
        in_queue[cid] = 0;
        if (p->dead[cid])
            continue;
        const int32_t *clause = lits_of(p, cid);
        int32_t n = p->len[cid];
        for (int32_t i = 0; i < n; i++) {
            int32_t lit = clause[i];
            if (p->frozen[iabs(lit)])
                continue;
            if (p->occ[lidx(-lit)].live > occurrence_limit)
                continue;
            if (!blocked_on(p, cid, lit))
                continue;
            ivec_push(&p->blocked, original(p, lit));
            emit_clause(p, cid);
            remove_clause(p, cid);
            p->stats[S_CLAUSES_BLOCKED]++;
            /* Re-examine the resolution partners of the removed clause. */
            for (int32_t j = 0; j < n; j++) {
                Occ *o = occ_scan(p, -clause[j]);
                for (int32_t k = 0; k < o->len; k++) {
                    int32_t other = o->data[k];
                    if (!in_queue[other]) {
                        in_queue[other] = 1;
                        ivec_push(queue, other);
                    }
                }
            }
            break;
        }
    }
    free(in_queue);
}

/* ------------------------------------------------------------------ */
/* Setup, round loop and output                                        */
/* ------------------------------------------------------------------ */
static int cmp_int32(const void *a, const void *b) {
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Renumber the input variables densely (preserving their order) and
 * rewrite *lits* in place; fills orig and the frozen flags. */
static void renumber(PP *p, int32_t *lits, int64_t total, const int32_t *frozen,
                     int64_t frozen_count) {
    int32_t low = 0, high = 0;
    for (int64_t i = 0; i < total; i++) {
        int32_t var = iabs(lits[i]);
        if (!i || var < low)
            low = var;
        if (var > high)
            high = var;
    }
    int64_t span = total ? (int64_t)high - low + 1 : 0;
    int32_t *table = NULL;
    if (span <= 16 * total + 4096) {
        /* Direct table over [low, high]. */
        table = xcalloc((size_t)span, sizeof(int32_t));
        for (int64_t i = 0; i < total; i++)
            table[iabs(lits[i]) - low] = 1;
        int32_t num_vars = 0;
        for (int64_t v = 0; v < span; v++)
            if (table[v])
                table[v] = ++num_vars;
        p->num_vars = num_vars;
        p->orig = xrealloc(NULL, (size_t)(num_vars + 1) * sizeof(int32_t));
        p->orig[0] = 0;
        for (int64_t v = 0; v < span; v++)
            if (table[v])
                p->orig[table[v]] = (int32_t)(v + low);
        for (int64_t i = 0; i < total; i++) {
            int32_t dense = table[iabs(lits[i]) - low];
            lits[i] = lits[i] > 0 ? dense : -dense;
        }
    } else {
        /* Sorted unique variables plus binary search. */
        int32_t *vars = xrealloc(NULL, (size_t)total * sizeof(int32_t));
        for (int64_t i = 0; i < total; i++)
            vars[i] = iabs(lits[i]);
        qsort(vars, (size_t)total, sizeof(int32_t), cmp_int32);
        int32_t num_vars = 0;
        for (int64_t i = 0; i < total; i++)
            if (!num_vars || vars[i] != vars[num_vars - 1])
                vars[num_vars++] = vars[i];
        p->num_vars = num_vars;
        p->orig = xrealloc(NULL, (size_t)(num_vars + 1) * sizeof(int32_t));
        p->orig[0] = 0;
        memcpy(p->orig + 1, vars, (size_t)num_vars * sizeof(int32_t));
        free(vars);
        for (int64_t i = 0; i < total; i++) {
            int32_t var = iabs(lits[i]);
            int32_t *hit = bsearch(&var, p->orig + 1, (size_t)num_vars,
                                   sizeof(int32_t), cmp_int32);
            int32_t dense = (int32_t)(hit - p->orig);
            lits[i] = lits[i] > 0 ? dense : -dense;
        }
    }
    p->frozen = xcalloc((size_t)p->num_vars + 1, 1);
    int64_t cutoff = p->params[P_FROZEN_CUTOFF];
    for (int32_t var = 1; var <= p->num_vars; var++)
        p->frozen[var] = p->orig[var] <= cutoff;
    for (int64_t i = 0; i < frozen_count; i++) {
        int32_t var = frozen[i];
        int32_t dense = 0;
        if (table) {
            if (var >= low && var <= high)
                dense = table[var - low];
        } else {
            int32_t *hit = bsearch(&var, p->orig + 1, (size_t)p->num_vars,
                                   sizeof(int32_t), cmp_int32);
            dense = hit ? (int32_t)(hit - p->orig) : 0;
        }
        if (dense)
            p->frozen[dense] = 1;
    }
    free(table);
}

static void write_output(PP *p, Result *r) {
    int64_t first = p->ends.len;
    if (p->unsat) {
        ivec_push(&p->ends, (int32_t)p->lits.len); /* the empty clause */
    } else {
        for (int32_t var = 1; var <= p->num_vars; var++)
            if (p->fixed[var]) {
                ivec_push(&p->lits, (int32_t)lidx(p->fixed[var] > 0 ? var : -var));
                ivec_push(&p->ends, (int32_t)p->lits.len);
            }
        for (int32_t cid = 0; cid < p->num_clauses; cid++)
            if (!p->dead[cid])
                emit_clause(p, cid);
    }
    r->unsat = p->unsat;
    r->stats[S_CLAUSES_OUT] = p->ends.len - first;
    r->num_lits = p->lits.len;
    r->num_clauses = p->ends.len;
    r->num_elim = p->elim.len / 2;
    r->num_blocked = p->blocked.len;
    r->lits = p->lits.data;
    r->ends = p->ends.data;
    r->elim = p->elim.data;
    r->blocked = p->blocked.data;
    r->num_names = 2 * ((int64_t)p->num_vars + 1);
    r->names = xcalloc((size_t)r->num_names, sizeof(int32_t));
    for (int32_t var = 1; var <= p->num_vars; var++) {
        r->names[lidx(var)] = p->orig[var];
        r->names[lidx(-var)] = -p->orig[var];
    }
}

static void release(PP *p) {
    int64_t num_lits = 2 * ((int64_t)p->num_vars + 1);
    for (int64_t i = 0; i < num_lits; i++)
        free(p->occ[i].data);
    free(p->occ);
    free(p->mark);
    free(p->orig);
    free(p->frozen);
    free(p->fixed);
    free(p->settled);
    free(p->assigned);
    free(p->value);
    free(p->start);
    free(p->len);
    free(p->dead);
    free(p->sig);
    IVec *vecs[] = {&p->arena, &p->unit_queue, &p->touched, &p->queue,
                    &p->found, &p->buffer, &p->pos, &p->neg, &p->rest,
                    &p->res_lits, &p->res_lens};
    for (size_t k = 0; k < sizeof(vecs) / sizeof(vecs[0]); k++)
        free(vecs[k]->data);
}

/* Preprocess *count* clauses (lengths *lens*, flat literals *lits*) with
 * the sorted *frozen* variables and the NUM_PARAMS *params*.  Returns NULL
 * when a literal is 0 or INT32_MIN (whose variable has no int32 index). */
Result *pp_run(const int32_t *lens, int64_t count, const int32_t *lits,
               const int32_t *frozen, int64_t frozen_count, const int64_t *params) {
    int64_t total = 0;
    for (int64_t i = 0; i < count; i++)
        total += lens[i];
    for (int64_t i = 0; i < total; i++)
        if (lits[i] == 0 || lits[i] == INT32_MIN)
            return NULL;
    Result *r = xcalloc(1, sizeof(Result));
    PP state;
    PP *p = &state;
    memset(p, 0, sizeof(PP));
    p->params = params;
    p->stats = r->stats;
    int32_t *dense = xrealloc(NULL, (size_t)total * sizeof(int32_t));
    if (total)
        memcpy(dense, lits, (size_t)total * sizeof(int32_t));
    renumber(p, dense, total, frozen, frozen_count);
    int64_t num_lits = 2 * ((int64_t)p->num_vars + 1);
    p->occ = xcalloc((size_t)num_lits, sizeof(Occ));
    p->mark = xcalloc((size_t)num_lits, sizeof(uint32_t));
    p->fixed = xcalloc((size_t)p->num_vars + 1, 1);
    p->settled = xcalloc((size_t)p->num_vars + 1, 1);
    p->assigned = xcalloc((size_t)p->num_vars + 1, sizeof(uint32_t));
    p->value = xcalloc((size_t)p->num_vars + 1, 1);
    ivec_reserve(&p->arena, total);

    int64_t offset = 0;
    for (int64_t i = 0; i < count; i++) {
        p->stats[S_CLAUSES_IN]++;
        add_clause(p, dense + offset, lens[i]);
        offset += lens[i];
    }
    free(dense);
    propagate_units(p);

    for (int64_t round = 0; round < params[P_MAX_ROUNDS]; round++) {
        if (p->unsat)
            break;
        p->stats[S_ROUNDS]++;
        int changed = 0;
        if (params[P_SUBSUMPTION]) {
            int64_t subsumed = p->stats[S_CLAUSES_SUBSUMED];
            int64_t strengthened = p->stats[S_LITERALS_STRENGTHENED];
            int64_t units = p->stats[S_UNITS_DERIVED];
            subsumption_pass(p);
            changed |= subsumed != p->stats[S_CLAUSES_SUBSUMED] ||
                       strengthened != p->stats[S_LITERALS_STRENGTHENED] ||
                       units != p->stats[S_UNITS_DERIVED];
        }
        if (params[P_ELIMINATION] && !p->unsat) {
            changed |= eliminate_pass(p);
            if (params[P_SUBSUMPTION] && p->touched.len && !p->unsat)
                subsumption_pass(p);
        }
        if (params[P_PROBING] && round == 0 && !p->unsat) {
            int64_t failed = p->stats[S_FAILED_LITERALS];
            probe_pass(p);
            changed |= p->stats[S_FAILED_LITERALS] > failed;
        }
        if (!changed)
            break;
    }
    if (params[P_BLOCKED] && !p->unsat)
        bce_pass(p);
    write_output(p, r);
    release(p);
    return r;
}

void pp_free(Result *r) {
    if (!r)
        return;
    free(r->lits);
    free(r->ends);
    free(r->elim);
    free(r->blocked);
    free(r->names);
    free(r);
}
