include Hub_store.Make (Flat_image.Store (struct
  let name = "Flat_hub"
  let backend_name = "flat-hub-labeling"
end))

let of_labels ?(cache_slots = 0) labels =
  let wrap = wrap ~cache_slots in
  Repro_obs.Span.run ~name:"flat-hub.pack" (fun () ->
      let n = Hub_label.n labels in
      let image =
        Flat_image.build ~n ~size:(Hub_label.size labels)
          ~hubs:(Hub_label.hubs labels)
      in
      Repro_obs.Span.count "vertices" n;
      Repro_obs.Span.count "entries" (Flat_image.total image);
      wrap image)

let of_image image = wrap ~cache_slots:0 (Flat_image.with_path image "")
let image = base
let bytes t = Flat_image.bytes (base t)
let total_size t = Flat_image.total (base t)
let to_labels t = Hub_label.of_arrays ~n:(n t) (Array.init (n t) (hubs t))
let equal a b = Flat_image.equal (base a) (base b)
