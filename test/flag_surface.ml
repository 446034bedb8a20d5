(* Print the option surface of every `hubhard serve` subcommand: one
   line per option as `--help=plain` renders its header (name, value
   name and default). The runtest rule diffs this against
   serve_flags.golden, so a shared flag definition can never add an
   option to a subcommand that did not take it, nor change a default.
   Usage: flag_surface.exe <path-to-hubhard-cli>. *)

let subcommands =
  [ "check"; "query"; "stats"; "loop"; "worker"; "router"; "trace" ]

let help cli sub =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; sub; "--help=plain" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = In_channel.input_lines ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("serve " ^ sub ^ " --help=plain failed"));
  lines

(* Option headers sit at a 7-space indent inside the OPTIONS sections;
   their descriptions are indented deeper. *)
let option_headers lines =
  let in_options = ref false in
  List.filter_map
    (fun line ->
      if line <> "" && line.[0] <> ' ' then begin
        in_options := String.ends_with ~suffix:"OPTIONS" line;
        None
      end
      else if
        !in_options && String.length line > 8
        && String.sub line 0 8 = "       -"
      then Some (String.trim line)
      else None)
    lines

let () =
  let cli = Sys.argv.(1) in
  List.iter
    (fun sub ->
      Printf.printf "== serve %s\n" sub;
      List.iter print_endline (option_headers (help cli sub)))
    subcommands
