(** The one label-store interface.

    Every packed hub-label store is {!Make} over a {!RAW} module that
    holds only its format code (layout, validation, the two-pointer
    merge): heap {!Flat_hub} and zero-copy {!Mmap_hub} over the one
    [HUBFLAT1] image ({!Flat_image.Store}), compressed {!Compact_hub}
    over its [HUBFLAT2] bytes. The functor supplies everything that is
    the same across encodings:

    - the optional {e direct-mapped cache}: [cache_slots] slots keyed
      by the unordered pair, each new answer evicting whatever
      previously hashed to its slot. A cached store mutates the cache
      on every query, so it must not be shared across threads without
      synchronisation;
    - bounds-checked [size] / [hubs] / [query] and the batched
      [query_many] (pool fan-out when cache-free, calling-domain with
      hit/miss merged once per batch when cached);
    - [cache_stats], [pp], and the store as a {!Repro_obs.Backend.t}
      and as an ops backend over a lazily built {!Hub_index}.

    A new encoding is therefore one {!RAW} module plus
    [Hub_store.Make]. *)

module type RAW = sig
  type t

  val name : string
  (** Module name used in [Invalid_argument] messages, e.g.
      ["Flat_hub"]; {!Make.pp} prints it lowercased. *)

  val backend_name : string
  (** {!Repro_obs.Backend.name} of the serving backend. *)

  val n : t -> int

  val size : t -> int -> int
  (** Hubset size of a vertex; the vertex is already range-checked. *)

  val hubs : t -> int -> (int * int) array
  (** The hubset of a vertex as fresh [(hub, dist)] pairs sorted by hub
      id; the vertex is already range-checked. *)

  val raw_query : t -> int -> int -> int
  (** Two-pointer merge over in-range endpoints (the hot path). *)

  val space_words : t -> int

  val pp_detail : t -> string
  (** The format's fields for {!Make.pp}, e.g. ["n=5, total=9"]. *)
end

module type S = sig
  type base
  type t

  val wrap : cache_slots:int -> base -> t
  (** [wrap ~cache_slots] checks [cache_slots] at once and returns the
      wrapper ([0] = no cache), so a loader can reject a bad slot
      count before doing any I/O.
      @raise Invalid_argument if [cache_slots < 0]. *)

  val base : t -> base

  val with_cache : cache_slots:int -> t -> t
  (** The same store with a fresh cache of [cache_slots] slots ([0]
      removes it); the packed data is shared, not copied.
      @raise Invalid_argument if [cache_slots < 0]. *)

  val n : t -> int

  val size : t -> int -> int
  (** @raise Invalid_argument on an out-of-range vertex. *)

  val hubs : t -> int -> (int * int) array
  (** @raise Invalid_argument on an out-of-range vertex. *)

  val query : t -> int -> int -> int
  (** {!Repro_graph.Dist.inf} when the hubsets are disjoint. Consults
      and fills the cache when one was configured.
      @raise Invalid_argument on out-of-range endpoints. *)

  val query_many :
    ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
  (** Validates all endpoints up front, then equals the [query] loop
      for any job count. A cache-free store fans the batch out across
      [pool] (default {!Repro_par.Pool.default}); a cached store
      answers on the calling domain and merges its hit/miss counts
      into {!cache_stats} once, at the end of the batch.
      @raise Invalid_argument if any endpoint is out of range. *)

  val cache_stats : t -> (int * int) option
  (** [Some (hits, misses)] for a cached store, [None] otherwise. *)

  val space_words : t -> int
  val pp : Format.formatter -> t -> unit

  val backend : t -> Repro_obs.Backend.t
  (** Traces report [|S(u)| + |S(v)|] as [entries_scanned] and, on a
      cached store, whether the cache hit ([entries_scanned = 0] on a
      hit — the packed data was never touched). *)

  val ops : ?pool:Repro_par.Pool.t -> t -> Repro_obs.Backend.ops
  (** [Dist] / [Batch] go through {!query} and never force the
      inverted index; every aggregate request runs over one
      {!Hub_index} built lazily on first aggregate use. Answers are
      byte-identical for any job count. *)
end

module Make (R : RAW) : S with type base = R.t = struct
  type base = R.t

  type cache = {
    slots : int;
    keys : int array; (* packed unordered pair, or -1 for an empty slot *)
    values : int array;
    mutable hits : int;
    mutable misses : int;
  }

  (* [n] is copied out of [base] so the per-query bounds check is a
     field load, not a call through the functor argument *)
  type t = { base : R.t; n : int; cache : cache option }

  let make_cache = function
    | 0 -> None
    | s when s < 0 ->
        invalid_arg (R.name ^ ": cache_slots must be non-negative")
    | s ->
        Some
          { slots = s; keys = Array.make s (-1); values = Array.make s 0;
            hits = 0; misses = 0 }

  let wrap ~cache_slots =
    let cache = make_cache cache_slots in
    fun base -> { base; n = R.n base; cache }

  let base t = t.base
  let with_cache ~cache_slots t = { t with cache = make_cache cache_slots }
  let n t = t.n

  let size t v =
    if v < 0 || v >= t.n then invalid_arg (R.name ^ ".size");
    R.size t.base v

  let hubs t v =
    if v < 0 || v >= t.n then invalid_arg (R.name ^ ".hubs");
    R.hubs t.base v

  let cached_query t c u v =
    let key = if u <= v then (u * t.n) + v else (v * t.n) + u in
    let slot = key mod c.slots in
    if Array.unsafe_get c.keys slot = key then begin
      c.hits <- c.hits + 1;
      Array.unsafe_get c.values slot
    end
    else begin
      c.misses <- c.misses + 1;
      let d = R.raw_query t.base u v in
      Array.unsafe_set c.keys slot key;
      Array.unsafe_set c.values slot d;
      d
    end

  let query t u v =
    if u < 0 || u >= t.n || v < 0 || v >= t.n then
      invalid_arg (R.name ^ ".query");
    match t.cache with
    | None -> R.raw_query t.base u v
    | Some c -> cached_query t c u v

  let query_many ?pool t pairs =
    Array.iter
      (fun (u, v) ->
        if u < 0 || u >= t.n || v < 0 || v >= t.n then
          invalid_arg (R.name ^ ".query_many"))
      pairs;
    let m = Array.length pairs in
    let out = Array.make m 0 in
    (match t.cache with
    | Some c ->
        (* The direct-mapped cache is not domain-safe — concurrent
           writes could tear a key/value pair — so cached batches stay
           on the calling domain. Hits and misses accumulate in a
           scratch cache and merge once at the end: the stats counters
           see a batch as one atomic update even if another domain
           reads them mid-batch. *)
        let scratch = { c with hits = 0; misses = 0 } in
        for k = 0 to m - 1 do
          let u, v = Array.unsafe_get pairs k in
          Array.unsafe_set out k (cached_query t scratch u v)
        done;
        c.hits <- c.hits + scratch.hits;
        c.misses <- c.misses + scratch.misses
    | None ->
        (* cache-free stores are immutable: fan the batch out *)
        let pool =
          match pool with Some p -> p | None -> Repro_par.Pool.default ()
        in
        Repro_par.Pool.parallel_for pool ~n:m (fun ~slot:_ lo hi ->
            for k = lo to hi - 1 do
              let u, v = Array.unsafe_get pairs k in
              Array.unsafe_set out k (R.raw_query t.base u v)
            done));
    out

  let cache_stats t =
    match t.cache with None -> None | Some c -> Some (c.hits, c.misses)

  let space_words t = R.space_words t.base

  let pp ppf t =
    Format.fprintf ppf "%s(%s, cache=%s)"
      (String.lowercase_ascii R.name)
      (R.pp_detail t.base)
      (match t.cache with
      | None -> "none"
      | Some c -> string_of_int c.slots ^ " slots")

  let backend t =
    let detailed u v =
      if u < 0 || u >= t.n || v < 0 || v >= t.n then
        invalid_arg (R.name ^ ".query");
      let scanned () = R.size t.base u + R.size t.base v in
      match t.cache with
      | None ->
          let d = R.raw_query t.base u v in
          ( d,
            Repro_obs.Trace.make ~entries_scanned:(scanned ())
              ~source:R.backend_name ~u ~v ~dist:d () )
      | Some c ->
          let hits0 = c.hits in
          let d = cached_query t c u v in
          let hit = c.hits > hits0 in
          ( d,
            Repro_obs.Trace.make
              ~entries_scanned:(if hit then 0 else scanned ())
              ~cache:(if hit then Repro_obs.Trace.Hit else Repro_obs.Trace.Miss)
              ~source:R.backend_name ~u ~v ~dist:d () )
    in
    Repro_obs.Backend.make ~name:R.backend_name ~space_words:(space_words t)
      ~detailed (query t)

  let ops ?pool t =
    let module Base = (val backend t : Repro_obs.Backend.S) in
    let q = query t and h = hubs t and nn = t.n in
    let idx = lazy (Hub_index.build ~n:nn ~hubs:h) in
    let module B = struct
      include Base

      let op req =
        match req with
        | Repro_obs.Ops.Dist _ | Repro_obs.Ops.Batch _ ->
            (* point queries use the store's merge directly and never
               force the inverted index *)
            Repro_obs.Ops.brute ~n:nn ~query:q req
        | _ -> Hub_index.eval ?pool (Lazy.force idx) ~hubs:h ~query:q req
    end in
    (module B : Repro_obs.Backend.S_ops)
end
