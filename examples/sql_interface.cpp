// The declarative text interface: CRE-QL, a small SQL dialect extended
// with the paper's semantic operators (SEMANTIC JOIN, SIMILAR TO,
// SEMANTIC GROUP BY, DETECT sources). The same Fig. 2 query as
// shopping_analytics.cpp, now as one statement, plus EXPLAIN and
// per-operator execution statistics (EXPLAIN ANALYZE).

#include <cstdio>

#include "datagen/shop.h"
#include "engine/engine.h"
#include "sql/sql.h"

using namespace cre;

int main() {
  ShopOptions options;
  options.num_products = 1000;
  options.num_images = 400;
  ShopDataset shop = GenerateShopDataset(options);

  Engine engine;
  engine.catalog().Put("products", shop.products);
  engine.catalog().Put("transactions", shop.transactions);
  engine.catalog().Put("kb_category", shop.kb.Export("category"));
  engine.models().Put("shop", shop.model);
  ObjectDetector detector(ObjectDetector::Options{30.0, 77});
  engine.detectors().Put("shop_images", {&shop.images, &detector});

  const std::string query =
      "SELECT name, type_label, price, image_id, similarity "
      "FROM products "
      "SEMANTIC JOIN kb_category ON type_label ~ subject "
      "  USING shop THRESHOLD 0.8 "
      "SEMANTIC JOIN DETECT shop_images ON type_label ~ object_label "
      "  USING shop THRESHOLD 0.8 "
      "WHERE price > 20 AND object = 'clothes' "
      "  AND date_taken > DATE 19300 AND objects_in_image > 2 "
      "ORDER BY similarity DESC LIMIT 10";

  std::printf("=== query ===\n%s\n\n", query.c_str());
  std::printf("=== optimized plan ===\n%s\n",
              sql::ExplainSql(&engine, query).ValueOrDie().c_str());

  // Every query is profiled by default; the newest profile is the one
  // EXPLAIN ANALYZE would render for this execution.
  auto result = sql::ExecuteSql(&engine, query).ValueOrDie();
  const auto profile = engine.traces().front();
  std::printf("=== result (top 10 by similarity) ===\n%s\n",
              result->ToString(10).c_str());
  std::printf("=== query profile (%.1f ms execute) ===\n%s\n",
              profile->execute_seconds * 1e3, profile->ToString().c_str());

  // A second statement: revenue per consolidated clothing concept.
  auto revenue =
      sql::ExecuteSql(&engine,
                      "SELECT COUNT(*) AS purchases, SUM(price) AS revenue "
                      "FROM transactions "
                      "JOIN products ON product_id = product_id "
                      "WHERE type_label SIMILAR TO 'clothes' USING shop "
                      "  THRESHOLD 0.5 "
                      "GROUP BY concept")
          .ValueOrDie();
  std::printf("=== clothing revenue by concept ===\n%s",
              revenue->ToString(20).c_str());
  return 0;
}
