(** Budget-bounded point-to-point search — the middle stage of the
    degradation chain in {!Resilient_oracle} — and the single-source
    BFS stage below it.

    The budget counts vertex expansions; exceeding it aborts the
    search rather than serving a possibly-wrong partial answer.

    Both searches run over a reusable {!workspace}: epoch-stamped
    visited marks, a distance array and a flat frontier queue per
    side. Starting a search bumps the epoch instead of clearing
    anything, so a search allocates no O(n) memory and an aborted
    search leaves nothing behind that the next one could see. *)

open Repro_graph

type workspace
(** Scratch space for searches over one graph: six arrays of [n]
    words. It is reusable for any number of searches, sequentially;
    it holds no state between them. It is not domain-safe: give each
    domain its own. *)

val workspace : Graph.t -> workspace
(** A fresh workspace sized for the graph. *)

val search : workspace -> Graph.t -> budget:int -> int -> int -> int option
(** Bidirectional BFS expanding the smaller frontier one full level at
    a time, until the two depths sum to at least the best meeting
    distance. [Some d] is a certified exact distance ([Some Dist.inf]
    certifies disconnection); [None] means the expansions would exceed
    [budget] first. [s = t] answers [Some 0] whatever the budget.
    @raise Invalid_argument on out-of-range endpoints, or when the
    workspace was made for a graph with another [n]. *)

val bidirectional : Graph.t -> budget:int -> int -> int -> int option
(** [search] on a fresh workspace — for one-off searches. *)

val bfs : workspace -> Graph.t -> int -> int -> int
(** [bfs ws g s t] is the exact distance ([Dist.inf] when
    disconnected) by plain unbudgeted BFS from [s], stopping as soon
    as [t] is labelled — the final authority of the chain.
    @raise Invalid_argument as {!search}. *)
