#include "relogic/config/cell_columns.hpp"

#include <algorithm>

namespace relogic::config {

CellColumns::CellColumns(fabric::Fabric& fab)
    : fab_(fab),
      rows_(fab.geometry().clb_rows),
      cells_(fab.geometry().cells_per_clb) {
  const int cols = fab.geometry().clb_cols;
  // Tile the erased tokens into every (col, cell) group, then overlay the
  // cells the fabric already holds in a non-default state.
  const fabric::LogicCellConfig erased{};
  std::vector<std::uint64_t> row_default(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r)
    row_default[static_cast<std::size_t>(r)] = FrameImage::cell_token(r, erased);
  tokens_.resize(static_cast<std::size_t>(cols) * cells_ * rows_);
  const int groups = cols * cells_;
  for (int g = 0; g < groups; ++g)
    std::copy(row_default.begin(), row_default.end(),
              tokens_.begin() + static_cast<std::ptrdiff_t>(g) * rows_);

  const fabric::ClbConfig erased_clb{};
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols; ++c) {
      const fabric::ClbConfig& clb = fab.clb(ClbCoord{r, c});
      if (clb == erased_clb) continue;
      for (int cell = 0; cell < cells_; ++cell) {
        const fabric::LogicCellConfig& cfg =
            clb.cells[static_cast<std::size_t>(cell)];
        if (cfg != erased)
          tokens_[static_cast<std::size_t>(slot(r, c, cell))] =
              FrameImage::cell_token(r, cfg);
      }
    }
  }

  fab_.add_listener(this);
}

CellColumns::~CellColumns() { fab_.remove_listener(this); }

void CellColumns::on_cell_changed(ClbCoord clb, int cell,
                                  const fabric::LogicCellConfig& /*before*/,
                                  const fabric::LogicCellConfig& after) {
  tokens_[static_cast<std::size_t>(slot(clb.row, clb.col, cell))] =
      FrameImage::cell_token(clb.row, after);
}

}  // namespace relogic::config
