type 'a entry = { key : float; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let grow h =
  let cap = Array.length h.data in
  if h.len >= cap then begin
    let ncap = Stdlib.max 8 (2 * cap) in
    let data = Array.make ncap h.data.(0) in
    Array.blit h.data 0 data 0 h.len;
    h.data <- data
  end

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.data.(i).key < h.data.(parent).key then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.data.(l).key < h.data.(!smallest).key then smallest := l;
  if r < h.len && h.data.(r).key < h.data.(!smallest).key then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h key value =
  if h.len = 0 && Array.length h.data = 0 then h.data <- Array.make 8 { key; value };
  grow h;
  h.data.(h.len) <- { key; value };
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let pop_min h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      sift_down h 0
    end;
    Some (top.key, top.value)
  end
