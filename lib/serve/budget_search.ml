open Repro_graph

(* One side of a search. [seen.(v) = epoch] marks [v] labelled in the
   current search, and only then is [dist.(v)] meaningful, so starting
   a search is one epoch bump instead of an O(n) reset. [queue] holds
   the labelled vertices in discovery order; the current frontier is
   the slice [lo, hi), and the next level is appended after [hi]. Each
   vertex is labelled at most once per search, so n slots suffice. *)
type side = {
  seen : int array;
  dist : int array;
  queue : int array;
  mutable lo : int;
  mutable hi : int;
  mutable depth : int;
}

type workspace = {
  n : int;
  mutable epoch : int;
  fwd : side;
  bwd : side;
  mutable best : int;
}

let side n =
  {
    seen = Array.make n 0;
    dist = Array.make n 0;
    queue = Array.make n 0;
    lo = 0;
    hi = 0;
    depth = 0;
  }

let workspace g =
  let n = Graph.n g in
  { n; epoch = 0; fwd = side n; bwd = side n; best = Dist.inf }

let start side e root =
  side.seen.(root) <- e;
  side.dist.(root) <- 0;
  side.queue.(0) <- root;
  side.lo <- 0;
  side.hi <- 1;
  side.depth <- 0

exception Met

(* Expand the whole current level of [me]. Levels are completed in
   order, so [dist] holds exact distances for every labelled vertex;
   once [fwd.depth + bwd.depth >= best] no undiscovered s-t path can
   be shorter than [best] (any such path of length L <= the depth sum
   has a vertex labelled by both sides, whose label sum L was already
   folded into [best] when the later of the two labellings happened).
   [stop_on_meet] raises [Met] at the first vertex the other side has
   labelled — the single-source stage, whose other side is the target
   alone. *)
let expand ws g ~stop_on_meet me other =
  let e = ws.epoch and d1 = me.depth + 1 in
  let tail = ref me.hi in
  let visit v =
    if me.seen.(v) <> e then begin
      me.seen.(v) <- e;
      me.dist.(v) <- d1;
      if other.seen.(v) = e then begin
        ws.best <- min ws.best (d1 + other.dist.(v));
        if stop_on_meet then raise_notrace Met
      end;
      me.queue.(!tail) <- v;
      incr tail
    end
  in
  for i = me.lo to me.hi - 1 do
    Graph.iter_neighbors g me.queue.(i) visit
  done;
  me.lo <- me.hi;
  me.hi <- !tail;
  me.depth <- d1

let begin_search ws g name s t =
  let n = Graph.n g in
  if n <> ws.n then invalid_arg (name ^ ": workspace sized for another graph");
  if s < 0 || s >= n || t < 0 || t >= n then invalid_arg name;
  let e = ws.epoch + 1 in
  ws.epoch <- e;
  ws.best <- Dist.inf;
  start ws.fwd e s;
  start ws.bwd e t

(* The budget counts expanded vertices. A level is expanded whole or
   not at all, so checking it up front aborts exactly when an
   expansion-by-expansion count would first exceed [budget]. *)
let rec loop ws g ~budget steps =
  let f = ws.fwd and b = ws.bwd in
  let nf = f.hi - f.lo and nb = b.hi - b.lo in
  if nf = 0 || nb = 0 || f.depth + b.depth >= ws.best then Some ws.best
  else if nf <= nb then advance ws g ~budget steps f b nf
  else advance ws g ~budget steps b f nb

and advance ws g ~budget steps me other size =
  if steps + size > budget then None
  else begin
    expand ws g ~stop_on_meet:false me other;
    loop ws g ~budget (steps + size)
  end

let search ws g ~budget s t =
  begin_search ws g "Budget_search.bidirectional" s t;
  if s = t then Some 0 else loop ws g ~budget 0

let bfs ws g s t =
  begin_search ws g "Budget_search.bfs" s t;
  if s = t then 0
  else begin
    let f = ws.fwd and b = ws.bwd in
    match
      while f.hi > f.lo do
        expand ws g ~stop_on_meet:true f b
      done
    with
    | () -> Dist.inf
    | exception Met -> ws.best
  end

let bidirectional g ~budget s t = search (workspace g) g ~budget s t
