type error = Packed_file.error =
  | Io of string
  | Not_regular of string
  | Too_short of { bytes : int }
  | Misaligned of { bytes : int }
  | Bad_magic
  | Bad_header of { word : int; msg : string }
  | Length_mismatch of { expected_words : int; actual_words : int }
  | Bad_offsets of { vertex : int; msg : string }
  | Bad_entry of { vertex : int; entry : int; msg : string }

let error_to_string = Packed_file.error_to_string ~prefix:"Mmap_hub"

include Hub_store.Make (Flat_image.Store (struct
  let name = "Mmap_hub"
  let backend_name = "mmap-hub-labeling"
end))

let load_res ?(cache_slots = 0) ?(deep = false) path =
  let wrap = wrap ~cache_slots in
  Repro_obs.Span.run ~name:"mmap-hub.load" (fun () ->
      let res =
        Result.bind
          (Packed_file.open_and_map Bigarray.int64
             ~min_bytes:Flat_image.min_bytes path)
          (fun (words, bytes) ->
            Repro_obs.Span.count "bytes" bytes;
            Flat_image.validate ~deep words)
      in
      match res with
      | Ok image -> Ok (wrap (Flat_image.with_path image path))
      | Error e ->
          Repro_obs.Events.emit_ambient ~level:Repro_obs.Events.Warn
            "mmap_hub.load_failure"
            [ ("path", Repro_obs.Events.Str path);
              ("msg", Repro_obs.Events.Str (error_to_string e)) ];
          Error e)

let validate_entries t = Flat_image.validate_entries (base t)
let total_size t = Flat_image.total (base t)
let path t = Flat_image.path (base t)
let bytes t = Flat_image.bytes (base t)

let to_flat t =
  match validate_entries t with
  | Ok () -> Flat_hub.of_image (base t)
  | Error e -> invalid_arg (error_to_string e)
