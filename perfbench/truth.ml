(* Independent ground truth for the benchmark: plain BFS over the graph
   file, written against the stdlib only so that a bug in the program's
   own graph, label or search code cannot hide in the reference.

   Usage:
     truth.exe answer GRAPH REQUESTS OUT
     truth.exe check GRAPH ANSWERS

   GRAPH is the edge-list file the program writes next to a packed
   store ("n m" header, then one "u v" edge per line). A request line
   is "p U V" (a point distance) or "o OP", with OP in the CLI's --op
   spelling restricted to the forms the benchmark sends: ecc:V,
   top-k:S,K, one-to-many:S:T1,T2,... and batch:U,V;U,V;...

   [answer] writes one line per request to OUT: the distance ("inf"
   when unreachable) or the op's canonical response rendering ("ecc D",
   "nearest V:D,...", "dists D1,D2,..."). [check] reads requests that
   carry the program's answer ("p U V D", "o OP<TAB>RESPONSE"), and
   prints the number of wrong answers on its last line. Point answers
   are kept in flat int arrays: a run checks millions of them. *)

let inf = max_int
let dist_str d = if d = inf then "inf" else string_of_int d

let read_graph path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = String.trim (input_line ic) in
       if l <> "" && l.[0] <> '#' then lines := l :: !lines
     done
   with End_of_file -> close_in ic);
  match List.rev !lines with
  | [] -> failwith "truth: empty graph file"
  | header :: edges ->
      let n = Scanf.sscanf header "%d %d" (fun n _ -> n) in
      let es = List.map (fun l -> Scanf.sscanf l "%d %d" (fun u v -> (u, v))) edges in
      let deg = Array.make n 0 in
      List.iter
        (fun (u, v) ->
          deg.(u) <- deg.(u) + 1;
          deg.(v) <- deg.(v) + 1)
        es;
      let off = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        off.(i + 1) <- off.(i) + deg.(i)
      done;
      let adj = Array.make off.(n) 0 and fill = Array.sub off 0 n in
      List.iter
        (fun (u, v) ->
          adj.(fill.(u)) <- v;
          fill.(u) <- fill.(u) + 1;
          adj.(fill.(v)) <- u;
          fill.(v) <- fill.(v) + 1)
        es;
      (n, off, adj)

(* BFS from [s] into [dist] (reused across sources), [queue] scratch. *)
let bfs (n, off, adj) dist queue s =
  Array.fill dist 0 n inf;
  dist.(s) <- 0;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for i = off.(u) to off.(u + 1) - 1 do
      let v = adj.(i) in
      if dist.(v) = inf then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

(* a growable int array *)
type vec = { mutable a : int array; mutable len : int }

let vec () = { a = Array.make 1024 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 b 0 v.len;
    v.a <- b
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let ints s = List.map int_of_string (String.split_on_char ',' s)

let pair s =
  match ints s with [ u; v ] -> (u, v) | _ -> failwith ("truth: bad pair " ^ s)

(* A request: a point lookup (its index into the lookup arrays), a
   batch (a range of lookups), or a single-source op whose response a
   BFS row fills in. *)
type req = Point of int | Batch of int * int | Op of string ref

let () =
  let mode, graph, input =
    match Sys.argv with
    | [| _; "answer"; g; i; _ |] -> ("answer", g, i)
    | [| _; "check"; g; i |] -> ("check", g, i)
    | _ ->
        prerr_endline "usage: truth.exe answer GRAPH REQUESTS OUT | check GRAPH ANSWERS";
        exit 2
  in
  let check = mode = "check" in
  let ((n, _, _) as g) = read_graph graph in
  (* lookups: source, target, and the program's answer to check (none
     for batch members and in answer mode) *)
  let us = vec () and vs = vec () and given = vec () in
  let none = -1 in
  let lookup u v d =
    push us u;
    push vs v;
    push given d;
    us.len - 1
  in
  let rows : (int, int array -> unit) Hashtbl.t = Hashtbl.create 1024 in
  (* requests whose rendering is needed, with the program's response *)
  let reqs = ref [] in
  let ic = open_in input in
  (try
     while true do
       let line = input_line ic in
       if line <> "" then
         match line.[0] with
         | 'p' ->
             Scanf.sscanf line "p %d %d %s" (fun u v d ->
                 if check then
                   ignore (lookup u v (if d = "inf" then inf else int_of_string d))
                 else reqs := (Point (lookup u v none), "") :: !reqs)
         | _ -> (
             let op, resp =
               match String.index_opt line '\t' with
               | Some t -> (String.sub line 2 (t - 2), String.sub line (t + 1) (String.length line - t - 1))
               | None -> (String.sub line 2 (String.length line - 2), "")
             in
             let row s f =
               let r = ref "" in
               Hashtbl.add rows s (fun d -> r := f d);
               reqs := (Op r, resp) :: !reqs
             in
             match String.split_on_char ':' op with
             | [ "ecc"; v ] ->
                 row (int_of_string v) (fun d -> "ecc " ^ dist_str (Array.fold_left max 0 d))
             | [ "top-k"; sk ] ->
                 let s, k = pair sk in
                 row s (fun d ->
                     let ps = Array.init n (fun v -> (d.(v), v)) in
                     Array.sort compare ps;
                     "nearest "
                     ^ String.concat ","
                         (Array.to_list
                            (Array.map
                               (fun (dv, v) -> string_of_int v ^ ":" ^ dist_str dv)
                               (Array.sub ps 0 (min k n)))))
             | [ "one-to-many"; s; ts ] ->
                 let ts = ints ts in
                 row (int_of_string s) (fun d ->
                     "dists " ^ String.concat "," (List.map (fun t -> dist_str d.(t)) ts))
             | [ "batch"; ps ] ->
                 let first = us.len in
                 List.iter
                   (fun p ->
                     let u, v = pair p in
                     ignore (lookup u v none))
                   (String.split_on_char ';' ps);
                 reqs := (Batch (first, us.len), resp) :: !reqs
             | _ -> failwith ("truth: unsupported op " ^ op))
     done
   with End_of_file -> close_in ic);
  (* bucket the lookups by source (counting sort), then one BFS per
     source that any lookup or op needs *)
  let m = us.len in
  let start = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    start.(us.a.(i) + 1) <- start.(us.a.(i) + 1) + 1
  done;
  for s = 0 to n - 1 do
    start.(s + 1) <- start.(s + 1) + start.(s)
  done;
  let order = Array.make m 0 and fill = Array.sub start 0 n in
  for i = 0 to m - 1 do
    let s = us.a.(i) in
    order.(fill.(s)) <- i;
    fill.(s) <- fill.(s) + 1
  done;
  let res = Array.make m 0 in
  let dist = Array.make n inf and queue = Array.make n 0 in
  for s = 0 to n - 1 do
    if start.(s + 1) > start.(s) || Hashtbl.mem rows s then begin
      bfs g dist queue s;
      for j = start.(s) to start.(s + 1) - 1 do
        res.(order.(j)) <- dist.(vs.a.(order.(j)))
      done;
      List.iter (fun f -> f dist) (Hashtbl.find_all rows s)
    end
  done;
  let render = function
    | Point i -> dist_str res.(i)
    | Batch (a, b) ->
        "dists " ^ String.concat "," (List.init (b - a) (fun j -> dist_str res.(a + j)))
    | Op r -> !r
  in
  let reqs = List.rev !reqs in
  if check then begin
    let wrong = ref 0 in
    let mismatch what got expected =
      incr wrong;
      if !wrong <= 5 then Printf.printf "wrong: %s got %s, expected %s\n" what got expected
    in
    for i = 0 to m - 1 do
      let d = given.a.(i) in
      if d <> none && d <> res.(i) then
        mismatch (Printf.sprintf "%d %d" us.a.(i) vs.a.(i)) (dist_str d) (dist_str res.(i))
    done;
    List.iter
      (fun (r, got) -> if render r <> got then mismatch "op" got (render r))
      reqs;
    Printf.printf "%d\n" !wrong
  end
  else begin
    let oc = open_out Sys.argv.(4) in
    List.iter
      (fun (r, _) ->
        output_string oc (render r);
        output_char oc '\n')
      reqs;
    close_out oc
  end
