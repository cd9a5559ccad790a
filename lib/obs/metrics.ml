type hist = {
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  counts : (int, int ref) Hashtbl.t; (* bucket exponent -> count *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
}

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let inc reg ?(by = 1) name =
  match reg with
  | None -> ()
  | Some r ->
      if by < 0 then invalid_arg "Metrics.inc: negative increment";
      (match Hashtbl.find_opt r.counters name with
      | Some c -> c := !c + by
      | None -> Hashtbl.add r.counters name (ref by))

let set_gauge reg name v =
  match reg with
  | None -> ()
  | Some r -> (
      match Hashtbl.find_opt r.gauges name with
      | Some g -> g := v
      | None -> Hashtbl.add r.gauges name (ref v))

(* Underflow (v <= 0) uses a sentinel exponent below any ceil(log2 v). *)
let underflow_bucket = min_int

let bucket_of v =
  if v <= 0.0 then underflow_bucket
  else Stdlib.max (-1074) (int_of_float (Float.ceil (Float.log2 v)))

let bucket_bound e = if e = underflow_bucket then 0.0 else Float.pow 2.0 (float_of_int e)

let observe reg name v =
  match reg with
  | None -> ()
  | Some r ->
      let h =
        match Hashtbl.find_opt r.histograms name with
        | Some h -> h
        | None ->
            let h =
              { count = 0; sum = 0.0; min = infinity; max = neg_infinity;
                counts = Hashtbl.create 8 }
            in
            Hashtbl.add r.histograms name h;
            h
      in
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      h.min <- Float.min h.min v;
      h.max <- Float.max h.max v;
      let b = bucket_of v in
      (match Hashtbl.find_opt h.counts b with
      | Some c -> incr c
      | None -> Hashtbl.add h.counts b (ref 1))

let counter r name =
  match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0

let gauge r name = Option.map ( ! ) (Hashtbl.find_opt r.gauges name)

let summary_of h =
  let buckets =
    Hashtbl.fold (fun e c acc -> (e, !c) :: acc) h.counts []
    |> List.sort compare
    |> List.map (fun (e, c) -> (bucket_bound e, c))
  in
  { count = h.count; sum = h.sum; min = h.min; max = h.max; buckets }

let histogram r name = Option.map summary_of (Hashtbl.find_opt r.histograms name)

(* Bucket-interpolated quantile on the log2 histogram.  The target rank
   q * count is located in the cumulative bucket counts; within the winning
   bucket the estimate interpolates linearly between the bucket's bounds
   (lower bound = upper / 2 for power-of-two buckets), then clamps to the
   exact [min, max] the histogram tracks — so a constant distribution
   reports the constant, not a bucket edge, and no estimate can leave the
   observed range. *)
let quantile (s : histogram_summary) q =
  if s.count <= 0 then invalid_arg "Metrics.quantile: empty histogram";
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.quantile: q outside [0, 1]";
  if q <= 0.0 then s.min
  else if q >= 1.0 then s.max
  else begin
    let target = q *. float_of_int s.count in
    let clamp est = Float.min s.max (Float.max s.min est) in
    let rec walk cum = function
      | [] -> s.max
      | (ub, c) :: rest ->
          let cum' = cum +. float_of_int c in
          if target <= cum' || (match rest with [] -> true | _ -> false) then begin
            (* The underflow bucket (bound 0) holds the non-positive
               observations: interpolate from the exact minimum instead of a
               halved power of two. *)
            let lo = if ub <= 0.0 then s.min else ub /. 2.0 in
            let frac = (target -. cum) /. float_of_int c in
            let frac = Float.min 1.0 (Float.max 0.0 frac) in
            clamp (lo +. (frac *. (ub -. lo)))
          end
          else walk cum' rest
    in
    walk 0.0 s.buckets
  end

let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let to_json r =
  let counters =
    List.map (fun k -> (k, Json.Int (counter r k))) (sorted_keys r.counters)
  in
  let gauges =
    List.map
      (fun k -> (k, Json.Float (Option.get (gauge r k))))
      (sorted_keys r.gauges)
  in
  let histograms =
    List.map
      (fun k ->
        let s = Option.get (histogram r k) in
        ( k,
          Json.Obj
            [
              ("count", Json.Int s.count);
              ("sum", Json.Float s.sum);
              ("min", Json.Float s.min);
              ("max", Json.Float s.max);
              ( "buckets",
                Json.Arr
                  (List.map
                     (fun (le, c) ->
                       Json.Obj [ ("le", Json.Float le); ("count", Json.Int c) ])
                     s.buckets) );
            ] ))
      (sorted_keys r.histograms)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]
