type error =
  | Io of string
  | Not_regular of string
  | Too_short of { bytes : int }
  | Misaligned of { bytes : int }
  | Bad_magic
  | Bad_header of { word : int; msg : string }
  | Length_mismatch of { expected_words : int; actual_words : int }
  | Bad_offsets of { vertex : int; msg : string }
  | Bad_entry of { vertex : int; entry : int; msg : string }

let error_to_string ~prefix e =
  prefix ^ ": "
  ^
  match e with
  | Io msg -> msg
  | Not_regular path -> "not a regular file: " ^ path
  | Too_short { bytes } ->
      Printf.sprintf "%d bytes is too short for magic + header" bytes
  | Misaligned { bytes } ->
      Printf.sprintf "%d bytes is not a whole number of words" bytes
  | Bad_magic -> "bad magic"
  | Bad_header { word; msg } ->
      Printf.sprintf "header word at byte %d: %s" word msg
  | Length_mismatch { expected_words; actual_words } ->
      Printf.sprintf
        "length disagrees with header (expected %d words, file has %d)"
        expected_words actual_words
  | Bad_offsets { vertex; msg } ->
      Printf.sprintf "offset of vertex %d: %s" vertex msg
  | Bad_entry { vertex; entry; msg } ->
      Printf.sprintf "entry %d of vertex %d: %s" entry vertex msg

exception Bad of error

let check_size ~min_bytes bytes =
  if bytes < min_bytes then Error (Too_short { bytes })
  else if bytes mod 8 <> 0 then Error (Misaligned { bytes })
  else Ok ()

let fits_int x = Int64.of_int (Int64.to_int x) = x

let header_int x ~index =
  let byte = 8 * index in
  if not (fits_int x) then
    Error (Bad_header { word = byte; msg = "overflows native int" })
  else
    let v = Int64.to_int x in
    if v < 0 then Error (Bad_header { word = byte; msg = "negative" })
    else Ok v

let open_and_map kind ~min_bytes path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Io (path ^ ": " ^ Unix.error_message err))
  | fd -> (
      let close () = try Unix.close fd with Unix.Unix_error _ -> () in
      let finish r = close (); r in
      match Unix.fstat fd with
      | exception Unix.Unix_error (err, _, _) ->
          finish (Error (Io (path ^ ": fstat: " ^ Unix.error_message err)))
      | st when st.Unix.st_kind <> Unix.S_REG ->
          finish (Error (Not_regular path))
      | st -> (
          let bytes = st.Unix.st_size in
          match check_size ~min_bytes bytes with
          | Error _ as e -> finish e
          | Ok () -> (
              match
                Bigarray.array1_of_genarray
                  (Unix.map_file fd kind Bigarray.c_layout false
                     [| bytes / Bigarray.kind_size_in_bytes kind |])
              with
              | a -> finish (Ok (a, bytes))
              | exception Unix.Unix_error (err, _, _) ->
                  finish
                    (Error (Io (path ^ ": map: " ^ Unix.error_message err)))
              | exception Sys_error msg -> finish (Error (Io msg)))))
